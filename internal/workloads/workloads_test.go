package workloads

import (
	"testing"

	"r3dla/internal/emu"
	"r3dla/internal/isa"
)

func TestAllWorkloadsBuildAndValidate(t *testing.T) {
	ws := All()
	if len(ws) != 25 {
		t.Fatalf("expected 25 workloads, got %d", len(ws))
	}
	for _, w := range ws {
		prog, setup := w.Build(1)
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if setup == nil {
			t.Fatalf("%s: nil setup", w.Name)
		}
	}
}

func TestAllWorkloadsExecute(t *testing.T) {
	// Every workload must run 50k instructions functionally without
	// halting, jumping out of range, or dividing the machine into a
	// stuck state.
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, setup := w.Build(1)
			mem := emu.NewMemory()
			setup(mem)
			m := emu.NewMachine(prog, mem)
			n := m.Run(50_000, nil)
			if n < 50_000 {
				t.Fatalf("halted after %d instructions", n)
			}
			if m.Halted {
				t.Fatal("machine halted prematurely")
			}
		})
	}
}

func TestWorkloadsAreDeterministicPerSeed(t *testing.T) {
	for _, w := range All()[:5] {
		p1, s1 := w.Build(7)
		p2, s2 := w.Build(7)
		m1, m2 := emu.NewMemory(), emu.NewMemory()
		s1(m1)
		s2(m2)
		a := emu.NewMachine(p1, m1)
		b := emu.NewMachine(p2, m2)
		for i := 0; i < 5000; i++ {
			d1, d2 := a.Step(), b.Step()
			if d1.PC != d2.PC || d1.Val != d2.Val {
				t.Fatalf("%s: diverged at step %d", w.Name, i)
			}
		}
	}
}

func TestSeedsChangeData(t *testing.T) {
	// Different seeds must produce different dynamic behaviour for at
	// least the data-dependent workloads (training vs evaluation inputs).
	w := ByName("mcf")
	p1, s1 := w.Build(1)
	p2, s2 := w.Build(2)
	m1, m2 := emu.NewMemory(), emu.NewMemory()
	s1(m1)
	s2(m2)
	a := emu.NewMachine(p1, m1)
	b := emu.NewMachine(p2, m2)
	differ := false
	for i := 0; i < 20000; i++ {
		d1, d2 := a.Step(), b.Step()
		if d1.In.Op.IsLoad() && d2.In.Op.IsLoad() && d1.EA != d2.EA {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("seeds 1 and 2 produce identical address streams")
	}
}

func TestSuiteMembership(t *testing.T) {
	counts := map[string]int{}
	for _, w := range All() {
		counts[w.Suite]++
	}
	want := map[string]int{"spec": 10, "crono": 5, "star": 4, "npb": 6}
	for s, n := range want {
		if counts[s] != n {
			t.Fatalf("suite %s has %d workloads, want %d", s, counts[s], n)
		}
	}
	for _, s := range Suites {
		if len(BySuite(s)) != want[s] {
			t.Fatalf("BySuite(%s) inconsistent", s)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	if ByName("nonexistent") != nil {
		t.Fatal("ByName returned a workload for a bogus name")
	}
	if len(Names()) != 25 {
		t.Fatal("Names() incomplete")
	}
	for _, n := range Names() {
		if ByName(n) == nil {
			t.Fatalf("round trip failed for %s", n)
		}
	}
}

// Behavioural sanity: libq must be overwhelmingly strided; mcf's loads
// must be irregular; md5 must be branch-predictable and low-miss.
func TestWorkloadBehaviourClasses(t *testing.T) {
	loadStrides := func(name string, steps int) (regular, total int) {
		w := ByName(name)
		prog, setup := w.Build(1)
		mem := emu.NewMemory()
		setup(mem)
		m := emu.NewMachine(prog, mem)
		last := map[int]uint64{}
		stride := map[int]int64{}
		for i := 0; i < steps; i++ {
			d := m.Step()
			if !d.In.Op.IsLoad() {
				continue
			}
			if la, ok := last[d.PC]; ok {
				s := int64(d.EA) - int64(la)
				if st, ok2 := stride[d.PC]; ok2 {
					total++
					if s == st && s != 0 {
						regular++
					}
				}
				stride[d.PC] = s
			}
			last[d.PC] = d.EA
		}
		return regular, total
	}

	reg, tot := loadStrides("libq", 50_000)
	if tot == 0 || float64(reg)/float64(tot) < 0.95 {
		t.Fatalf("libq not strided: %d/%d", reg, tot)
	}
	// mcf mixes a strided arc scan with an irregular node gather: a
	// substantial fraction of its load pairs must be non-strided.
	reg, tot = loadStrides("mcf", 50_000)
	if tot > 0 && float64(reg)/float64(tot) > 0.8 {
		t.Fatalf("mcf too regular: %d/%d", reg, tot)
	}
}

var _ = isa.NOP // keep the import for builders referenced in tests

var sinkWorkload *Workload

// TestByNameAllocs pins that a workload lookup reads the registry built
// at start-up instead of rebuilding all 25 workloads per call: the
// service pays one lookup on every /v1/runs request.
func TestByNameAllocs(t *testing.T) {
	for _, name := range []string{"mcf", "no-such-workload"} {
		if n := testing.AllocsPerRun(100, func() { sinkWorkload = ByName(name) }); n != 0 {
			t.Errorf("ByName(%q) allocates %v times per call, want 0", name, n)
		}
	}
}
