package dse

import (
	"fmt"
	"io"
	"net/http"

	"r3dla/internal/exp"
	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// NewHandler returns the POST /v1/explore handler over l: the body is an
// exploration Spec (JSON), the response an NDJSON stream of completed
// cells followed by the exploration report. Validation failures are
// proper 400s before the stream commits to 200, and its lines are
// sweep.StreamLines. Explorations are admitted through srv exactly like
// runs and sweeps; the server journals nothing — cross-request reuse
// comes from the Lab's memo instead.
func NewHandler(l *lab.Lab, srv *lab.Server) http.Handler {
	tiers := &sweep.TierRunners{Lab: l}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			lab.WriteError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", lab.ErrInvalid, err))
			return
		}
		spec, err := ParseSpec(body)
		if err != nil {
			lab.WriteError(w, http.StatusBadRequest, err)
			return
		}
		// Normalize and open the space up front so bad strategies, bad
		// axes and oversized budgets are 400s with field-level messages,
		// not mid-stream errors.
		spec, err = spec.normalize()
		if err != nil {
			lab.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if _, err := NewSpace(spec.Space); err != nil {
			lab.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if err := sweep.CheckBudget(srv, spec.Space.Budget); err != nil {
			lab.WriteError(w, http.StatusBadRequest, err)
			return
		}

		// Resolve the runners before the stream commits to 200: the base
		// runner follows the space's own fidelity (an all-analytic or
		// all-MC exploration runs entirely on an estimator); a ladder
		// exploration additionally gets the two estimator tiers, seeded by
		// the exploration seed. Resolution only builds calibrator handles —
		// no simulation happens until cells run.
		runner, err := tiers.Runner(spec.Space.Fidelity, spec.Space.Budget, uint64(spec.Seed))
		if err != nil {
			lab.WriteError(w, http.StatusBadRequest, err)
			return
		}
		var topts *Tiers
		if spec.Fidelity == FidelityLadder {
			analytic, aerr := tiers.Runner(sweep.TierAnalytic, spec.Space.Budget, uint64(spec.Seed))
			mc, merr := tiers.Runner(sweep.TierMC, spec.Space.Budget, uint64(spec.Seed))
			if aerr != nil || merr != nil {
				lab.WriteError(w, http.StatusBadRequest, fmt.Errorf("%w: fidelity ladder tiers unavailable", lab.ErrInvalid))
				return
			}
			topts = &Tiers{Analytic: analytic, MC: mc}
		}

		sweep.ServeCells(w, r, srv, func(progress func(sweep.Event)) (*exp.Report, error) {
			res, err := Explore(r.Context(), runner, spec, Options{Progress: progress, Tiers: topts})
			if err != nil {
				return nil, err
			}
			return res.Report(), nil
		})
	})
}
