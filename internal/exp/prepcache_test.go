package exp

import (
	"reflect"
	"sync"
	"testing"

	"r3dla/internal/core"
	"r3dla/internal/isa"
	"r3dla/internal/resultstore"
	"r3dla/internal/workloads"
)

// prepBudget is the evaluation budget of the prep-cache tests; their
// Contexts train at half of it, like every Context.
const prepBudget = 4000

type prepFixture struct {
	train, eval *isa.Program
	prof        *core.Profile
	set         *core.Set
	key         string
}

var (
	prepFixOnce sync.Once
	prepFix     prepFixture
)

// mcfPrep builds mcf's preparation artifacts once: Collect runs a real
// training simulation, so the tests share one.
func mcfPrep(t *testing.T) *prepFixture {
	t.Helper()
	prepFixOnce.Do(func() {
		w := workloads.ByName("mcf")
		train, trainSetup := w.Build(TrainSeed)
		eval, _ := w.Build(EvalSeed)
		prof := core.Collect(train, trainSetup, prepBudget/2)
		prepFix = prepFixture{
			train: train, eval: eval, prof: prof, set: core.Generate(eval, prof),
			key: prepKey("mcf", prepBudget/2, train, eval),
		}
	})
	return &prepFix
}

func openPrepStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open(dir, PrepFormat, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRoundTrip: a Context over a warm directory prepares from the store
// alone, reattaches the evaluation program, and simulates exactly like
// the Context that generated the entry.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cold := NewContext(prepBudget)
	cold.Cache = openPrepStore(t, dir)
	want := cold.Prep("mcf")
	if st := cold.Cache.Stats(); st.Puts != 1 {
		t.Fatalf("cold prep stored %d entries, want 1: %+v", st.Puts, st)
	}

	warm := NewContext(prepBudget)
	warm.Cache = openPrepStore(t, dir)
	got := warm.Prep("mcf")
	if st := warm.Cache.Stats(); st.Hits != 1 || st.Puts != 0 {
		t.Fatalf("warm prep did not load from the store: %+v", st)
	}
	if got.Set.Prog != got.Prog {
		t.Error("loaded Set.Prog not reattached to the eval program")
	}
	opt := core.Options{TrialInsts: 1500}
	if w, g := cold.RunCached(want, opt), warm.RunCached(got, opt); !reflect.DeepEqual(g, w) {
		t.Errorf("simulation with cached artifacts diverges from original:\nwant MT=%+v\ngot  MT=%+v", w.MT, g.MT)
	}
}

// TestCorruptEntriesLoadAsMiss: a frame the store accepts but whose body
// gob cannot decode is a miss, and the Context regenerates and
// overwrites it. Frame-level damage is the store's own test.
func TestCorruptEntriesLoadAsMiss(t *testing.T) {
	t.Run("garbage-body", func(t *testing.T) {
		f := mcfPrep(t)
		st := openPrepStore(t, t.TempDir())
		if err := st.Put(f.key, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := loadPrep(st, f.key, f.eval); ok {
			t.Fatal("undecodable body loaded as a hit")
		}
		c := NewContext(prepBudget)
		c.Cache = st
		c.Prep("mcf")
		if _, _, ok := loadPrep(st, f.key, f.eval); !ok {
			t.Fatal("regenerated entry did not overwrite the undecodable one")
		}
	})
}

// TestFingerprintMismatchIsMiss: an entry stored for one workload build
// misses when either program changes, because the key carries their
// fingerprint.
func TestFingerprintMismatchIsMiss(t *testing.T) {
	f := mcfPrep(t)
	st := openPrepStore(t, t.TempDir())
	if err := storePrep(st, f.key, f.prof, f.set); err != nil {
		t.Fatal(err)
	}
	w := workloads.ByName("libq")
	otherTrain, _ := w.Build(TrainSeed)
	otherEval, _ := w.Build(EvalSeed)
	if _, _, ok := loadPrep(st, prepKey("mcf", prepBudget/2, otherTrain, otherEval), otherEval); ok {
		t.Fatal("entry hit against programs with a different fingerprint")
	}
	if _, _, ok := loadPrep(st, prepKey("mcf", prepBudget/2, f.train, otherEval), otherEval); ok {
		t.Fatal("entry hit with a different eval program")
	}
	if _, _, ok := loadPrep(st, f.key, f.eval); !ok {
		t.Fatal("the stored programs' key stopped hitting")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	f := mcfPrep(t)
	other, _ := workloads.ByName("libq").Build(TrainSeed)
	base := ProgramFingerprint(f.train, other)
	if ProgramFingerprint(f.train, other) != base {
		t.Fatal("ProgramFingerprint not deterministic")
	}
	if ProgramFingerprint(other, f.train) == base {
		t.Error("ProgramFingerprint ignores program order")
	}
	mutated := *f.train
	mutated.Insts = append([]isa.Inst(nil), f.train.Insts...)
	mutated.Insts[0].Imm++
	if ProgramFingerprint(&mutated, other) == base {
		t.Error("ProgramFingerprint ignores instruction changes")
	}
}
