package resultstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"r3dla/internal/faultinject"
)

// A torn Put — the crash-before-sync shape — must leave the store
// serving a silent miss, never an error or a wrong payload, and the next
// Put must repair the entry.
func TestTornPutReadsAsSilentMiss(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	p := faultinject.New(31)
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStorePut, Mode: faultinject.Torn, Limit: 1})
	s.SetFaults(p)

	key := "mcf|r3@4000"
	payload := []byte("the cached answer bytes, long enough to tear meaningfully")
	err := s.Put(key, payload)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn Put returned %v, want ErrInjected", err)
	}
	// The torn frame is on disk at the final path — exactly what a power
	// loss before fsync used to leave. Reading it must be a miss that
	// also reclaims the damaged file.
	if _, ok := s.Get(key); ok {
		t.Fatal("torn frame served a hit")
	}
	if _, serr := os.Stat(s.path(key)); !os.IsNotExist(serr) {
		t.Fatal("damaged frame was not reclaimed")
	}
	// Limit spent: the retry writes a clean, durable frame.
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != string(payload) {
		t.Fatalf("repaired entry: ok=%v got=%q", ok, got)
	}
}

// Silent single-byte corruption (the write reports success) must be
// caught by the frame checksum on read.
func TestCorruptPutCaughtByChecksum(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	p := faultinject.New(32)
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStorePut, Mode: faultinject.Corrupt, Limit: 1})
	s.SetFaults(p)

	key := "libq|dla@2000"
	if err := s.Put(key, []byte("payload that will rot on the way down")); err != nil {
		t.Fatalf("corrupt Put should report success, got %v", err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupted frame served a hit")
	}
}

func TestENOSPCPutSurfacesError(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	p := faultinject.New(33)
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStorePut, Mode: faultinject.ENOSPC, Limit: 1})
	s.SetFaults(p)

	err := s.Put("k", []byte("v"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC", err)
	}
	if !strings.Contains(err.Error(), "resultstore") {
		t.Fatalf("error %q lost its package prefix", err)
	}
	// Nothing landed, nothing is indexed.
	if s.Len() != 0 {
		t.Fatalf("failed Put indexed an entry (len=%d)", s.Len())
	}
}

// An injected Get fault is a silent miss — the caller's regenerate path,
// not an error path.
func TestInjectedGetFaultIsMiss(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	p := faultinject.New(34)
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStoreGet, Mode: faultinject.Error, Limit: 1})
	s.SetFaults(p)

	if _, ok := s.Get("k"); ok {
		t.Fatal("injected read fault served a hit")
	}
	// The fault budget is spent; the entry itself is intact.
	if got, ok := s.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("entry damaged by an injected read fault: ok=%v got=%q", ok, got)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 1 miss + 1 hit", st)
	}
}

// The durable Put leaves no temp litter even across injected failures.
func TestNoTempLitterAfterFaults(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	p := faultinject.New(35)
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStorePut, Mode: faultinject.ENOSPC, Prob: 0.5})
	s.SetFaults(p)
	for i := 0; i < 20; i++ {
		s.Put("k", []byte("v")) // errors expected; litter is not
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", filepath.Join(dir, e.Name()))
		}
	}
}
