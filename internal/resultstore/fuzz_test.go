package resultstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDecode feeds the frame parser arbitrary bytes, as a damaged or
// foreign file in the store directory would. No input may panic, a frame
// is served only under its own key, and a frame decode accepts is
// exactly what encode writes for that key, fingerprint and body: the
// parser admits nothing the writer could not have made. The committed
// testdata frames and a few encoded ones seed it and run as ordinary
// cases under plain `go test`.
func FuzzDecode(f *testing.F) {
	frames, err := filepath.Glob(filepath.Join("testdata", "*.res"))
	if err != nil || len(frames) == 0 {
		f.Fatalf("no committed frames under testdata (%v)", err)
	}
	for _, name := range frames {
		frame, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	s := &Store{fp: testFP}
	for _, e := range []struct{ key, body string }{
		{"", ""},
		{"k", "v"},
		{"mcf|r3@3000", `{"ipc":1.5}`},
		{strings.Repeat("k", maxName+1), "\x00\xff"},
	} {
		frame := s.encode(e.key, []byte(e.body))
		f.Add(frame)
		f.Add(frame[:len(frame)-1]) // torn
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		fp, key, _, ok := parseHeader(raw)
		if !ok {
			return
		}
		s := &Store{fp: fp}
		body, ok := s.decode(raw, string(key))
		if !ok {
			return
		}
		if _, ok := s.decode(raw, string(key)+"x"); ok {
			t.Fatalf("frame for key %q decoded under another key", key)
		}
		if again := s.encode(string(key), body); !bytes.Equal(again, raw) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", again, raw)
		}
	})
}
