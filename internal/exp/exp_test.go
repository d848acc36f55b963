package exp

import (
	"strings"
	"testing"

	"r3dla/internal/core"
)

// tiny context for fast tests.
func testCtx() *Context { return NewContext(8_000) }

func TestPrepMemoizes(t *testing.T) {
	c := testCtx()
	p1 := c.Prep("bzip")
	p2 := c.Prep("bzip")
	if p1 != p2 {
		t.Fatal("Prep not memoized")
	}
	if p1.Set == nil || p1.Prof == nil {
		t.Fatal("Prep incomplete")
	}
}

func TestRunCachedMemoizes(t *testing.T) {
	c := testCtx()
	p := c.Prep("bzip")
	r1 := c.RunCached(p, core.Options{Disable: true, WithBOP: true})
	r2 := c.RunCached(p, core.Options{Disable: true, WithBOP: true})
	if r1 != r2 {
		t.Fatal("RunCached not memoized")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"tab1", "fig1", "fig5", "fig9a", "fig9b", "tab2",
		"fig10", "fig11", "tab3", "fig12", "fig13a", "fig13b", "fig13c",
		"fig14", "fig15"}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(Registry), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %s missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id resolved")
	}
	if len(IDs()) != len(want) {
		t.Fatal("IDs() incomplete")
	}
}

func TestTable1Renders(t *testing.T) {
	out := Table1(testCtx()).String()
	for _, want := range []string{"192 ROB", "BOQ 512", "TAGE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5AndFig14Render(t *testing.T) {
	c := testCtx()
	out := Fig5(c).String()
	if !strings.Contains(out, "P(queue length)") || !strings.Contains(out, "expected fetch bubbles") {
		t.Fatalf("Fig5 incomplete:\n%s", out)
	}
	out14 := Fig14(c).String()
	if !strings.Contains(out14, "theoretical") || !strings.Contains(out14, "simulated") {
		t.Fatalf("Fig14 incomplete:\n%s", out14)
	}
}

func TestFig1Renders(t *testing.T) {
	out := Fig1(testCtx()).String()
	if !strings.Contains(out, "ideal:2048") || !strings.Contains(out, "gmean") {
		t.Fatalf("Fig1 incomplete:\n%s", out)
	}
}

// TestSmallFig9a exercises the bottom-line experiment on a reduced
// context: smoke coverage of the full BL/DLA/R3 matrix.
func TestSmallFig9a(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := Fig9a(testCtx()).String()
	if !strings.Contains(out, "R3-DLA") || !strings.Contains(out, "spec") {
		t.Fatalf("Fig9a incomplete:\n%s", out)
	}
}

func TestSuiteNames(t *testing.T) {
	if len(SuiteNames("all")) != 25 {
		t.Fatal("all-suite name list incomplete")
	}
	if len(SuiteNames("crono")) != 5 {
		t.Fatal("crono suite wrong size")
	}
}
