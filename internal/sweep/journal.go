package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"r3dla/internal/atomicio"
	"r3dla/internal/faultinject"
	"r3dla/internal/lab"
)

// journalLine is one checkpoint record: a completed cell's canonical key
// and its result. The journal is NDJSON — one line per completed cell,
// appended as cells finish, in completion order (which varies with
// scheduling; the aggregate table does not depend on it).
type journalLine struct {
	Key    string         `json:"key"`
	Result *lab.RunResult `json:"result"`
}

// quarantineExt is appended to the journal path to form the quarantine
// file: damaged lines are moved there instead of being silently dropped.
const quarantineExt = ".quarantine"

// loadedJournal is a parsed checkpoint journal: decoded results by cell
// key, plus the raw lines split into intact and damaged — the engine
// quarantines the damaged ones and rewrites the journal from the intact
// ones, so corruption never silently shrinks a resume.
type loadedJournal struct {
	results map[string]*lab.RunResult
	good    [][]byte // intact raw lines, original order
	bad     [][]byte // undecodable raw lines, original order
}

// loadJournal reads a checkpoint journal. Damage a crash or a bad disk
// can leave behind — a truncated final line, a corrupted middle line —
// lands in bad rather than being skipped; duplicate keys collapse (last
// write wins — results are deterministic, so duplicates agree anyway). A
// missing file is an empty journal.
func loadJournal(path string, faults *faultinject.Plane) (*loadedJournal, error) {
	if faults != nil {
		o := faults.At(faultinject.JournalLoad)
		if o.Delay > 0 {
			time.Sleep(o.Delay)
		}
		if o.Err != nil {
			return nil, fmt.Errorf("sweep: journal: %w", o.Err)
		}
	}
	lj := &loadedJournal{results: make(map[string]*lab.RunResult)}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return lj, nil
		}
		return nil, fmt.Errorf("sweep: journal: %w", err)
	}
	defer f.Close()

	// Lines are read whole, however long, so a damaged line of any
	// length lands in bad too.
	r := bufio.NewReader(f)
	for done := false; !done; {
		line, err := r.ReadBytes('\n')
		switch {
		case err == io.EOF:
			done = true // a torn last line has no newline
		case err != nil:
			return nil, fmt.Errorf("sweep: journal: %w", err)
		}
		raw := bytes.TrimSuffix(bytes.TrimSuffix(line, []byte{'\n'}), []byte{'\r'})
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var l journalLine
		if err := json.Unmarshal(raw, &l); err != nil || l.Key == "" || l.Result == nil {
			lj.bad = append(lj.bad, raw)
			continue
		}
		lj.results[l.Key] = l.Result
		lj.good = append(lj.good, raw)
	}
	return lj, nil
}

// quarantine moves a journal's damaged lines aside: they are appended
// (durably) to <journal>.quarantine for postmortem, and the journal is
// atomically rewritten holding only the intact lines in their original
// order. The damaged lines' cells simply re-run — results are
// deterministic, so the repaired journal plus the re-runs reproduce the
// uninterrupted output byte for byte.
func quarantine(path string, lj *loadedJournal) error {
	q, err := os.OpenFile(path+quarantineExt, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sweep: quarantine: %w", err)
	}
	for _, line := range lj.bad {
		if _, err := q.Write(append(line, '\n')); err != nil {
			q.Close()
			return fmt.Errorf("sweep: quarantine: %w", err)
		}
	}
	if err := q.Sync(); err != nil {
		q.Close()
		return fmt.Errorf("sweep: quarantine: %w", err)
	}
	if err := q.Close(); err != nil {
		return fmt.Errorf("sweep: quarantine: %w", err)
	}

	var clean bytes.Buffer
	for _, line := range lj.good {
		clean.Write(line)
		clean.WriteByte('\n')
	}
	if err := atomicio.WriteFile(path, clean.Bytes(), 0o644, nil, ""); err != nil {
		return fmt.Errorf("sweep: quarantine: rewrite: %w", err)
	}
	return nil
}

// journalWriter appends checkpoint lines to the journal file, serialized
// across the sweep's worker goroutines. Each line is written, then
// fsynced, so a crash after append returns cannot lose the checkpoint —
// at most the line being written is torn, and quarantine absorbs that on
// resume.
type journalWriter struct {
	mu     sync.Mutex
	f      *os.File
	faults *faultinject.Plane
}

// openJournal opens (creating if needed) the journal for appending, and
// syncs the parent directory so the file's existence is durable.
func openJournal(path string, faults *faultinject.Plane) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: journal: %w", err)
	}
	if err := atomicio.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: journal: %w", err)
	}
	return &journalWriter{f: f, faults: faults}, nil
}

// append writes one completed cell and fsyncs. Errors are returned so
// the engine can abort the sweep rather than silently losing
// checkpoints. Injected torn/corrupt faults damage the line *silently*
// (the sweep continues) — that is the crash shape quarantine has to
// catch on the next resume.
func (w *journalWriter) append(key string, res *lab.RunResult) error {
	data, err := json.Marshal(journalLine{Key: key, Result: res})
	if err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	data = append(data, '\n')
	if w.faults != nil {
		o := w.faults.At(faultinject.JournalAppend)
		if o.Delay > 0 {
			time.Sleep(o.Delay)
		}
		if o.Err != nil {
			return fmt.Errorf("sweep: journal: %w", o.Err)
		}
		if o.Torn {
			// A killed process mid-append: a line prefix with no
			// terminator. Keep at least one byte off the end so the line
			// can never parse.
			n := int(o.Frac * float64(len(data)-1))
			data = data[:n]
		}
		if o.Corrupt && len(data) > 1 {
			// Smash a byte inside the line (never the terminator) to NUL:
			// the line stays a line but can never decode — JSON rejects
			// control characters everywhere, so the damage is always
			// caught (an XOR flip inside a string could still parse).
			i := int(o.Frac * float64(len(data)-1))
			mutated := append([]byte(nil), data...)
			mutated[i] = 0x00
			data = mutated
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(data) > 0 {
		if _, err := w.f.Write(data); err != nil {
			return fmt.Errorf("sweep: journal: %w", err)
		}
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	return nil
}

func (w *journalWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
