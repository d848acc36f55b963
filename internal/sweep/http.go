package sweep

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"r3dla/internal/exp"
	"r3dla/internal/lab"
	"r3dla/internal/tier"
)

// StreamLine is one NDJSON line of a POST /v1/sweeps or /v1/explore
// response: a "cell" line per completed cell (in completion order; an
// exploration's Done/Total are relative to its current search batch),
// then exactly one terminal line — "result" carrying the report, or
// "error".
type StreamLine struct {
	Event   string         `json:"event"` // "cell", "result", "error"
	Done    int            `json:"done,omitempty"`
	Total   int            `json:"total,omitempty"`
	Cell    *Cell          `json:"cell,omitempty"`
	Run     *lab.RunResult `json:"run,omitempty"`
	Resumed bool           `json:"resumed,omitempty"`
	Result  *exp.Report    `json:"result,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// CheckBudget rejects a per-cell budget over srv's cap, the same policy
// POST /v1/runs enforces.
func CheckBudget(srv *lab.Server, budget uint64) error {
	if max := srv.MaxBudget(); max > 0 && budget > max {
		return fmt.Errorf("%w: budget %d exceeds server cap %d", lab.ErrInvalid, budget, max)
	}
	return nil
}

// ServeCells answers a validated request: it admits r through srv
// (request admission, 503 at capacity, and outcome accounting for
// /v1/healthz, exactly like runs) and streams one "cell" line per Event
// run reports, then the report run returns (see lab.Stream).
func ServeCells(w http.ResponseWriter, r *http.Request, srv *lab.Server, run func(progress func(Event)) (*exp.Report, error)) {
	release, ok := srv.Admit(w, r)
	if !ok {
		return
	}
	defer release()
	observe := func(err error) { srv.Observe(r.Context(), err) }
	lab.Stream(w, observe, func(emit func(any)) (any, error) {
		return run(func(ev Event) {
			c := ev.Cell
			emit(StreamLine{
				Event: "cell", Done: ev.Done, Total: ev.Total,
				Cell: &c, Run: ev.Result, Resumed: ev.Resumed,
			})
		})
	})
}

// NewHandler returns the POST /v1/sweeps handler over l: the body is a
// sweep Spec (JSON), the response an NDJSON stream of completed cells
// followed by the aggregate report. Validation failures are proper 400s
// before the stream commits to 200. Sweeps are admitted through srv
// exactly like runs; the server journals nothing — cross-request reuse
// comes from the Lab's memo instead.
func NewHandler(l *lab.Lab, srv *lab.Server) http.Handler {
	tiers := &TierRunners{Lab: l}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			lab.WriteError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", lab.ErrInvalid, err))
			return
		}
		spec, err := ParseSpec(body)
		if err == nil {
			err = CheckBudget(srv, spec.Budget)
		}
		if err != nil {
			lab.WriteError(w, http.StatusBadRequest, err)
			return
		}
		// Expand and resolve the runner up front so bad grids and
		// fidelities are 400s with field-level messages, not mid-stream
		// errors; the cells are reused below.
		cells, err := spec.Expand()
		if err != nil {
			lab.WriteError(w, http.StatusBadRequest, err)
			return
		}
		runner, err := tiers.Runner(spec.Fidelity, spec.Budget, 0)
		if err != nil {
			lab.WriteError(w, http.StatusBadRequest, err)
			return
		}
		ServeCells(w, r, srv, func(progress func(Event)) (*exp.Report, error) {
			res, err := RunCells(r.Context(), runner, spec, cells, Options{Progress: progress})
			if err != nil {
				return nil, err
			}
			return res.Report(), nil
		})
	})
}

// TierRunners resolves fidelity names to Runners over one Lab, sharing
// calibrators across requests so a server calibrates each (workload,
// calibration-budget) pair once, not once per request. Both the sweep
// and the explore handlers hold one.
type TierRunners struct {
	Lab *lab.Lab

	mu   sync.Mutex
	cals map[uint64]*tier.Calibrator
}

// Runner returns the Runner for a fidelity name: the Lab itself for the
// cycle tier, a calibrated estimator otherwise. budget is the per-cell
// budget (it sizes the calibration run); seed fixes the Monte-Carlo
// tier's sampling streams.
func (t *TierRunners) Runner(fidelity string, budget uint64, seed uint64) (Runner, error) {
	tr, err := TierOf(fidelity)
	if err != nil {
		return nil, err
	}
	if tr == TierCycle {
		return t.Lab, nil
	}
	cal := t.calibrator(budget)
	if tr == TierAnalytic {
		return tier.NewAnalyticRunner(cal), nil
	}
	return tier.NewMonteCarloRunner(cal, seed), nil
}

func (t *TierRunners) calibrator(budget uint64) *tier.Calibrator {
	cb := tier.CalibBudgetFor(budget)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cals == nil {
		t.cals = make(map[uint64]*tier.Calibrator)
	}
	c := t.cals[cb]
	if c == nil {
		c = tier.NewCalibrator(t.Lab, cb, nil)
		t.cals[cb] = c
	}
	return c
}
