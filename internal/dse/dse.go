// Package dse is the adaptive design-space exploration layer: where
// internal/sweep enumerates a grid exhaustively (and caps it at
// sweep.MaxCells), dse describes the same axes symbolically as a lazy
// Space, draws cells from it with pluggable samplers (seeded random,
// Latin hypercube), and runs iterative searchers — successive halving on
// IPC across rising budgets, Pareto-frontier search over IPC vs energy —
// that submit deterministic batches through the existing sweep.Runner
// interface. Because evaluation happens on that boundary, everything the
// sweep engine already provides composes for free: the Lab's (or the
// fleet backends') singleflight result cache, the NDJSON checkpoint
// journal with crash-safe resume, and the byte-identity contract — a
// fixed seed yields byte-identical output at any -jobs count, local or
// distributed, interrupted or not. The search loop is separated from the evaluation
// workers in the RESIDSE style: samplers and searchers never touch a
// simulator, they only pick cell indices and rank deterministic results.
package dse

import (
	"bytes"
	"encoding/json"
	"fmt"

	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// Strategy names accepted by Spec.Strategy.
const (
	// StrategyRandom evaluates one seeded uniform sample of the space.
	StrategyRandom = "random"
	// StrategyLHS evaluates one Latin-hypercube-stratified sample.
	StrategyLHS = "lhs"
	// StrategyHalving runs successive halving on IPC: a broad candidate
	// draw at a small budget, the best 1/eta promoted to an eta-times
	// larger budget, repeated until the full budget decides the survivors.
	StrategyHalving = "halving"
	// StrategyPareto accumulates sampler draws round by round and keeps
	// the non-dominated IPC-vs-energy frontier of everything evaluated.
	StrategyPareto = "pareto"
)

// FidelityLadder turns a halving or pareto exploration into a tiered
// one: the whole space is scored by the analytic tier, the top fraction
// is promoted to the Monte-Carlo tier, and only the finalists run on the
// cycle-accurate runner — rungs become (runner, budget) pairs instead of
// budgets alone, and the report carries per-tier estimator error against
// the cycle-accurate ground truth.
const FidelityLadder = "ladder"

// Defaults applied by normalize for fields left zero.
const (
	DefaultSamples = 256
	DefaultRounds  = 4
	DefaultEta     = 4

	// maxSamples and maxRounds bound one exploration's evaluation volume
	// (the per-round sample cap times the round cap), so a malformed spec
	// cannot ask a server for unbounded compute.
	maxSamples = 65536
	maxRounds  = 64
)

// Spec is the declarative description of one exploration: the space (a
// sweep spec, minus its cell cap) plus the search strategy and its
// parameters. The zero values of the tuning knobs mean "default", so the
// minimal spec is just a space, a strategy and a seed.
type Spec struct {
	// Space describes the axes to search — exactly a sweep spec, but
	// enumerated lazily, so spaces far beyond sweep.MaxCells are legal.
	// Space.Budget is the full-fidelity evaluation budget.
	Space sweep.Spec `json:"space"`

	// Strategy selects the search loop ("" means random).
	Strategy string `json:"strategy,omitempty"`

	// Sampler selects the candidate source for the iterative strategies
	// ("random" or "lhs"; "" means random). The one-shot strategies name
	// their sampler directly and ignore this.
	Sampler string `json:"sampler,omitempty"`

	// Seed drives every random choice. Equal seeds mean byte-identical
	// exploration output — the determinism contract under randomness.
	Seed int64 `json:"seed"`

	// Samples is the cells drawn per round (and the one-shot sample
	// size); 0 means DefaultSamples.
	Samples int `json:"samples,omitempty"`

	// Rounds bounds the Pareto strategy's draw-evaluate rounds; 0 means
	// DefaultRounds. Halving derives its round count from the budgets.
	Rounds int `json:"rounds,omitempty"`

	// Eta is the halving reduction factor: each round keeps ceil(n/eta)
	// candidates and multiplies the budget by eta; 0 means DefaultEta.
	Eta int `json:"eta,omitempty"`

	// MinBudget is halving's round-0 budget; 0 derives it from the full
	// budget (Space.Budget / eta^3, floored at 1000).
	MinBudget uint64 `json:"min_budget,omitempty"`

	// Fidelity selects tiered evaluation: "" runs every rung on the
	// cycle-accurate runner, FidelityLadder climbs analytic → Monte-Carlo
	// → cycle-accurate instead of (halving) or alongside (pareto) the
	// budget ladder.
	Fidelity string `json:"fidelity,omitempty"`
}

// ParseSpec decodes a JSON exploration spec, rejecting unknown fields
// and trailing garbage, mirroring sweep.ParseSpec.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: explore spec: %v", lab.ErrInvalid, err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("%w: explore spec: trailing data after JSON object", lab.ErrInvalid)
	}
	return s, nil
}

// normalize validates the spec and fills defaults, returning the
// resolved copy the searchers run on. The space itself is validated by
// NewSpace (workloads, axes, size), not here.
func (s Spec) normalize() (Spec, error) {
	switch s.Strategy {
	case "":
		s.Strategy = StrategyRandom
	case StrategyRandom, StrategyLHS, StrategyHalving, StrategyPareto:
	default:
		return Spec{}, fmt.Errorf("%w: unknown strategy %q (want random, lhs, halving or pareto)", lab.ErrInvalid, s.Strategy)
	}
	switch s.Sampler {
	case "":
		s.Sampler = SamplerRandom
	case SamplerRandom, SamplerLHS:
	default:
		return Spec{}, fmt.Errorf("%w: unknown sampler %q (want random or lhs)", lab.ErrInvalid, s.Sampler)
	}
	// The one-shot strategies are their sampler; keep the two coherent so
	// the report header never contradicts itself.
	switch s.Strategy {
	case StrategyRandom:
		s.Sampler = SamplerRandom
	case StrategyLHS:
		s.Sampler = SamplerLHS
	}
	if s.Samples == 0 {
		s.Samples = DefaultSamples
	}
	if s.Samples < 1 || s.Samples > maxSamples {
		return Spec{}, fmt.Errorf("%w: samples %d, want 1..%d", lab.ErrInvalid, s.Samples, maxSamples)
	}
	if s.Rounds == 0 {
		s.Rounds = DefaultRounds
	}
	if s.Rounds < 1 || s.Rounds > maxRounds {
		return Spec{}, fmt.Errorf("%w: rounds %d, want 1..%d", lab.ErrInvalid, s.Rounds, maxRounds)
	}
	if s.Eta == 0 {
		s.Eta = DefaultEta
	}
	if s.Eta < 2 || s.Eta > 64 {
		return Spec{}, fmt.Errorf("%w: eta %d, want 2..64", lab.ErrInvalid, s.Eta)
	}
	switch s.Fidelity {
	case "":
	case FidelityLadder:
		if s.Strategy != StrategyHalving && s.Strategy != StrategyPareto {
			return Spec{}, fmt.Errorf("%w: fidelity ladder needs an iterative strategy (halving or pareto), not %q", lab.ErrInvalid, s.Strategy)
		}
		if s.Space.Budget == 0 {
			return Spec{}, fmt.Errorf("%w: fidelity ladder needs an explicit space budget (every rung evaluates at it)", lab.ErrInvalid)
		}
		if s.Space.Fidelity != "" {
			return Spec{}, fmt.Errorf("%w: set fidelity on the exploration, not the space (space fidelity %q conflicts with the ladder)", lab.ErrInvalid, s.Space.Fidelity)
		}
	default:
		return Spec{}, fmt.Errorf("%w: unknown fidelity %q (want \"\" or %q)", lab.ErrInvalid, s.Fidelity, FidelityLadder)
	}
	if s.Strategy == StrategyHalving {
		if s.Space.Budget == 0 {
			return Spec{}, fmt.Errorf("%w: halving needs an explicit space budget (the rising-budget ladder tops out there)", lab.ErrInvalid)
		}
		if s.MinBudget == 0 {
			eta := uint64(s.Eta)
			s.MinBudget = s.Space.Budget / (eta * eta * eta)
			if s.MinBudget < 1000 {
				s.MinBudget = 1000
			}
			if s.MinBudget > s.Space.Budget {
				s.MinBudget = s.Space.Budget
			}
		}
		if s.MinBudget > s.Space.Budget {
			return Spec{}, fmt.Errorf("%w: min_budget %d exceeds the space budget %d", lab.ErrInvalid, s.MinBudget, s.Space.Budget)
		}
	}
	return s, nil
}
