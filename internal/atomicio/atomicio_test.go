package atomicio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"r3dla/internal/faultinject"
)

func TestWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frame")
	data := []byte("the quick brown fox")
	if err := WriteFile(path, data, 0o600, nil, ""); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("perm = %v, want 0600", fi.Mode().Perm())
	}
	// No temp litter left behind.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestWriteFileOverwrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFile(path, []byte("old old old"), 0o644, nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o644, nil, ""); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "new" {
		t.Fatalf("read back %q, want %q", got, "new")
	}
}

// A torn write must leave a strictly truncated image at the final path
// and report an injected error — the crash state downstream readers have
// to treat as a silent miss.
func TestTornWriteLeavesPartialFrame(t *testing.T) {
	p := faultinject.New(21)
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStorePut, Mode: faultinject.Torn, Limit: 1})
	path := filepath.Join(t.TempDir(), "frame")
	data := bytes.Repeat([]byte("x"), 1024)
	err := WriteFile(path, data, 0o644, p, faultinject.ResultStorePut)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn write returned %v, want ErrInjected", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("torn write left no file: %v", rerr)
	}
	if len(got) >= len(data) {
		t.Fatalf("torn write kept %d bytes of %d — not truncated", len(got), len(data))
	}
	// The plane's Limit is spent: the next write goes through clean.
	if err := WriteFile(path, data, 0o644, p, faultinject.ResultStorePut); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if !bytes.Equal(got, data) {
		t.Fatal("post-fault write not intact")
	}
}

// Corruption is silent: WriteFile reports success but exactly one byte
// differs from what the caller handed in.
func TestCorruptWriteFlipsOneByte(t *testing.T) {
	p := faultinject.New(22)
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStorePut, Mode: faultinject.Corrupt, Limit: 1})
	path := filepath.Join(t.TempDir(), "entry")
	data := bytes.Repeat([]byte("y"), 512)
	if err := WriteFile(path, data, 0o644, p, faultinject.ResultStorePut); err != nil {
		t.Fatalf("corrupt write should report success, got %v", err)
	}
	got, _ := os.ReadFile(path)
	if len(got) != len(data) {
		t.Fatalf("corrupt write changed length: %d vs %d", len(got), len(data))
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	// The caller's buffer is untouched (corruption copies).
	if !bytes.Equal(data, bytes.Repeat([]byte("y"), 512)) {
		t.Fatal("caller's buffer was mutated")
	}
}

func TestENOSPCAndErrorFaults(t *testing.T) {
	p := faultinject.New(23)
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStorePut, Mode: faultinject.ENOSPC, Limit: 1})
	path := filepath.Join(t.TempDir(), "f")
	err := WriteFile(path, []byte("data"), 0o644, p, faultinject.ResultStorePut)
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("got %v, want injected ENOSPC", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatal("failed write should leave no file")
	}
}

func TestDelayFaultStalls(t *testing.T) {
	var slept time.Duration
	old := sleep
	sleep = func(d time.Duration) { slept = d }
	defer func() { sleep = old }()

	p := faultinject.New(24)
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStorePut, Mode: faultinject.Delay, Delay: 42 * time.Millisecond, Limit: 1})
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFile(path, []byte("data"), 0o644, p, faultinject.ResultStorePut); err != nil {
		t.Fatal(err)
	}
	if slept != 42*time.Millisecond {
		t.Fatalf("slept %v, want 42ms", slept)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "data" {
		t.Fatal("delayed write not intact")
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a tempdir: %v", err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir on a missing dir should error")
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"), 0o644, nil, "")
	if err == nil {
		t.Fatal("write into a missing directory should error")
	}
}
