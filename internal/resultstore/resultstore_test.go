package resultstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const testFP = 0xfeedface

func open(t *testing.T, dir string, max int) *Store {
	t.Helper()
	s, err := Open(dir, testFP, max)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	key := "mcf|dla@150000"
	payload := []byte(`{"workload":"mcf","ipc":1.25}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store served a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: ok=%v got=%q want=%q", ok, got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStoreSurvivesRestart is the store's reason to exist: a fresh Store
// over a warm directory serves the old process's answers.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 0)
	if err := s1.Put("bfs|r3@2000", []byte("answer")); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 0)
	if got, ok := s2.Get("bfs|r3@2000"); !ok || string(got) != "answer" {
		t.Fatalf("restart lost the entry: ok=%v got=%q", ok, got)
	}
	if s2.Len() != 1 {
		t.Fatalf("restart index has %d entries, want 1", s2.Len())
	}
}

// TestStoreFingerprintMismatch: entries written under a different
// fingerprint (older simulator semantics) read as misses.
func TestStoreFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 0)
	if err := s1.Put("k", []byte("old semantics")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, testFP+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("k"); ok {
		t.Fatal("fingerprint mismatch served a hit")
	}
}

// TestStoreCorruptionIsMiss walks the fault catalogue: every damaged
// byte, truncation or foreign file must load as a clean miss, never an
// error or a wrong payload, and the damaged file must be reclaimed.
func TestStoreCorruptionIsMiss(t *testing.T) {
	key := "mcf|r3@4000"
	payload := []byte("the cached answer bytes")
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"truncated header", func(t *testing.T, path string) { rewrite(t, path, func(b []byte) []byte { return b[:8] }) }},
		{"truncated body", func(t *testing.T, path string) { rewrite(t, path, func(b []byte) []byte { return b[:len(b)-3] }) }},
		{"wrong magic", func(t *testing.T, path string) {
			rewrite(t, path, func(b []byte) []byte { b[0] ^= 0xff; return b })
		}},
		{"wrong version", func(t *testing.T, path string) {
			rewrite(t, path, func(b []byte) []byte { b[4] ^= 0xff; return b })
		}},
		{"flipped body byte", func(t *testing.T, path string) {
			rewrite(t, path, func(b []byte) []byte { b[len(b)-1] ^= 1; return b })
		}},
		{"flipped checksum", func(t *testing.T, path string) {
			rewrite(t, path, func(b []byte) []byte { b[len(b)-len(payload)-1] ^= 1; return b })
		}},
		{"empty file", func(t *testing.T, path string) { rewrite(t, path, func([]byte) []byte { return nil }) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, 0)
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, s.path(key))
			if got, ok := s.Get(key); ok {
				t.Fatalf("damaged entry served a hit: %q", got)
			}
			if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
				t.Fatal("damaged file was not reclaimed")
			}
			// The store still works for the same key afterwards.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("store unusable after damage: ok=%v got=%q", ok, got)
			}
		})
	}
}

// TestStoreKeyMismatch: a file renamed onto another key's path (or a
// sanitization collision) must miss — the embedded key is authoritative.
func TestStoreKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.Put("key-a", []byte("a's answer")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.path("key-a"), s.path("key-b")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("key-b"); ok {
		t.Fatalf("renamed entry served the wrong key: %q", got)
	}
}

// TestStorePathSanitization: hostile keys stay inside the store
// directory and still round-trip.
func TestStorePathSanitization(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	key := "../../etc/passwd|evil/../@42"
	if err := s.Put(key, []byte("contained")); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("store dir has %d entries, want 1 (escaped?)", len(ents))
	}
	if got, ok := s.Get(key); !ok || string(got) != "contained" {
		t.Fatalf("hostile key round trip: ok=%v got=%q", ok, got)
	}
	if _, err := os.Stat(filepath.Join(dir, "..", "..", "etc", "passwd")); err == nil {
		t.Fatal("key escaped the store directory")
	}
}

// TestStoreLRUEviction: the bound holds, the oldest (least recently
// touched) entry goes first, and a Get refreshes recency.
func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 3)
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	if err := s.Put("k3", []byte{3}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("LRU victim k1 survived")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s evicted, want k1 only", k)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v, want 1 eviction and 3 entries", st)
	}
}

// TestStoreRestartEvictsOverBound: reopening with a smaller bound trims
// oldest-first, using mtimes persisted by the previous process.
func TestStoreRestartEvictsOverBound(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 0)
	for i := 0; i < 4; i++ {
		if err := s1.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so the restart scan sees an unambiguous order.
		past := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(s1.path(fmt.Sprintf("k%d", i)), past, past); err != nil {
			t.Fatal(err)
		}
	}
	s2 := open(t, dir, 2)
	if s2.Len() != 2 {
		t.Fatalf("reopened store has %d entries, want 2", s2.Len())
	}
	for _, k := range []string{"k0", "k1"} {
		if _, ok := s2.Get(k); ok {
			t.Fatalf("oldest entry %s survived the restart trim", k)
		}
	}
	for _, k := range []string{"k2", "k3"} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("newest entry %s was trimmed", k)
		}
	}
}

// TestStoreConcurrentAccess hammers one store from many goroutines (run
// under -race in CI): every Get must return either a miss or a complete,
// valid payload for its key.
func TestStoreConcurrentAccess(t *testing.T) {
	s := open(t, t.TempDir(), 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				want := []byte("payload-" + key)
				if err := s.Put(key, want); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				if got, ok := s.Get(key); ok && !bytes.Equal(got, want) {
					t.Errorf("get %s: wrong payload %q", key, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStoreLongKey: a key whose sanitized name exceeds a file-name limit
// still persists under a bounded name and survives a reopen. A
// cores: wide run key is about 490 bytes.
func TestStoreLongKey(t *testing.T) {
	dir := t.TempDir()
	key := "mcf|" + strings.Repeat("rob=512,", 61) + "vq=0@300" // 500 bytes
	s1 := open(t, dir, 0)
	if err := s1.Put(key, []byte("wide answer")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s1.Get(key); !ok || string(got) != "wide answer" {
		t.Fatalf("long key round trip: ok=%v got=%q", ok, got)
	}
	if name := filepath.Base(s1.path(key)); len(name) > maxName {
		t.Fatalf("entry name is %d bytes, over %d", len(name), maxName)
	}
	// A key differing only past the kept prefix gets its own file.
	other := key[:len(key)-3] + "400"
	if s1.path(other) == s1.path(key) {
		t.Fatal("two long keys share one file name")
	}
	s2 := open(t, dir, 0)
	if s2.Len() != 1 {
		t.Fatalf("reopened store indexes %d entries, want 1", s2.Len())
	}
	if got, ok := s2.Get(key); !ok || string(got) != "wide answer" {
		t.Fatalf("long key lost across a reopen: ok=%v got=%q", ok, got)
	}
}

// TestStoreReadsCommittedFrame pins the on-disk format: the testdata
// frame was written by an earlier release's Put (a /v1/runs answer at
// results fingerprint 1), and the store must serve its payload byte for
// byte under the file name that release gave it.
func TestStoreReadsCommittedFrame(t *testing.T) {
	const (
		key  = "mcf|t1=true,vr=true,fb=true,rc=true,bop=true,stride=false,po=false,dis=false,boq=0,fq=0,vq=0,reboot=0,trial=0@3000"
		name = "mcf_t1_true_vr_true_fb_true_rc_true_bop_true_stride_false_po_false_dis_false_boq_0_fq_0_vq_0_reboot_0_trial_0@3000.res"
	)
	frame, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "payload.json"))
	if err != nil {
		t.Fatal(err)
	}
	// A copy: a hit refreshes the file's mtime, and the store may
	// delete what it cannot read.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, want) {
		t.Fatalf("committed frame: ok=%v got=%q want=%q", ok, got, want)
	}
}

// TestStoreAtomicAndOverwritable: overwriting an entry keeps it readable
// and leaves no temp files behind.
func TestStoreAtomicAndOverwritable(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for _, v := range []string{"first", "second"} {
		if err := s.Put("mcf@2000", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	assertOnlyEntry(t, dir)
	if got, ok := s.Get("mcf@2000"); !ok || string(got) != "second" {
		t.Fatalf("overwritten entry: ok=%v got=%q", ok, got)
	}
}

// TestConcurrentWritersRoundTrip pins the multi-writer contract: several
// Stores over one directory (the shape of several r3dlad instances
// racing a cold cache) writing the same entry leave exactly one readable
// entry and no stranded temp files.
func TestConcurrentWritersRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const writers = 8
	payload := bytes.Repeat([]byte("prepared artifacts "), 512)
	stores := make([]*Store, writers)
	for i := range stores {
		stores[i] = open(t, dir, 0)
	}
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if err := s.Put("mcf@2000", payload); err != nil {
					t.Error(err)
					return
				}
				// A concurrent rename may be mid-flight, but a completed
				// Put must always read back: readers only see whole files.
				if got, ok := s.Get("mcf@2000"); !ok || !bytes.Equal(got, payload) {
					t.Errorf("read after write: ok=%v, %d bytes", ok, len(got))
					return
				}
			}
		}(stores[i])
	}
	wg.Wait()
	assertOnlyEntry(t, dir)
	if got, ok := open(t, dir, 0).Get("mcf@2000"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("entry unreadable after concurrent writes: ok=%v", ok)
	}
}

// assertOnlyEntry fails unless dir holds exactly one file.
func assertOnlyEntry(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("store dir should hold exactly the entry, got %v", names)
	}
}

// rewrite mutates a stored file in place.
func rewrite(t *testing.T, path string, f func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}
