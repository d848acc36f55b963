// Package resultstore is the repo's one checksummed on-disk store: a
// directory of opaque byte payloads under string keys, so it never
// imports the types it persists. It holds r3dlad's finished simulation
// answers (keyed workload|configKey@budget, so a restarted server or a
// sibling process sharing the directory serves a repeated request from a
// file read) and tier calibrations (internal/tier).
//
// Every entry is one frame: a magic/version/fingerprint/key/length/
// checksum header guards the payload, writes are atomic and durable
// (internal/atomicio), and any anomaly on read — torn write, version
// bump, fingerprint or key mismatch, checksum failure — is a silent miss
// that also deletes the damaged file, never an error. The caller
// regenerates and overwrites.
//
// A store may be LRU-bounded by entry count: recency is the file mtime
// (refreshed on every hit), so the eviction order itself survives
// restarts. Concurrent use by multiple goroutines is safe; so is
// concurrent use by multiple processes sharing the directory, since
// atomic renames mean readers only ever observe complete files.
package resultstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"r3dla/internal/atomicio"
	"r3dla/internal/faultinject"
)

// Version is the on-disk format version; bumping it orphans (and thereby
// regenerates) every existing entry.
const Version = 1

// magic identifies a store entry file.
var magic = [4]byte{'R', '3', 'R', 'S'}

// ext is the entry file suffix.
const ext = ".res"

// maxName is the longest file name the common filesystems accept
// (NAME_MAX).
const maxName = 255

// Stats is a point-in-time snapshot of the store's counters. Hits,
// Misses, Evictions and Puts are cumulative for this process; Entries is
// the live entry count.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Puts      int64 `json:"puts"`
	Entries   int   `json:"entries"`
}

// Store is a directory of entries plus an in-memory LRU index.
// The zero value is not usable; call Open.
type Store struct {
	dir    string
	fp     uint64             // caller's fingerprint, folded into every entry header
	max    int                // entry bound (0 = unlimited)
	faults *faultinject.Plane // nil in production; Get/Put fault gates

	mu      sync.Mutex
	order   []string // keys, least-recently-used first
	present map[string]bool

	hits, misses, evictions, puts int64
}

// Open opens (creating if needed) a store rooted at dir. fingerprint
// ties every entry to the caller's payload semantics — bump it
// (or fold a version constant into it) and every existing entry reads as
// a miss. maxEntries bounds the store size (0 = unlimited); existing
// entries beyond the bound are evicted oldest-first immediately.
func Open(dir string, fingerprint uint64, maxEntries int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{dir: dir, fp: fingerprint, max: maxEntries, present: make(map[string]bool)}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictOverLocked()
	s.mu.Unlock()
	return s, nil
}

// SetFaults attaches a fault-injection plane (nil detaches) that Get
// consults at faultinject.ResultStoreGet and Put at
// faultinject.ResultStorePut. Chaos-only: call before the store sees
// traffic.
func (s *Store) SetFaults(p *faultinject.Plane) { s.faults = p }

// Len reports the live entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Evictions: s.evictions, Puts: s.puts,
		Entries: len(s.order),
	}
}

// scan rebuilds the LRU index from the directory: every well-formed entry
// file joins the index ordered by mtime (oldest first); unreadable or
// foreign files are left alone (they read as misses and are reclaimed
// when their key is next written).
func (s *Store) scan() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	type rec struct {
		key string
		mod time.Time
	}
	var recs []rec
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ext) {
			continue
		}
		key, ok := readKey(filepath.Join(s.dir, name))
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		recs = append(recs, rec{key: key, mod: info.ModTime()})
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].mod.Equal(recs[j].mod) {
			return recs[i].mod.Before(recs[j].mod)
		}
		return recs[i].key < recs[j].key // deterministic order for equal mtimes
	})
	for _, r := range recs {
		if !s.present[r.key] {
			s.present[r.key] = true
			s.order = append(s.order, r.key)
		}
	}
	return nil
}

// path maps a key to its file, sanitized so keys never escape the store
// directory; a name over maxName keeps a prefix and gains a hash of the
// full key. Collisions are harmless: the exact key is embedded in the
// header and verified on load.
func (s *Store) path(key string) string {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '@', r == '.':
			return r
		}
		return '_'
	}, key) + ext
	if len(name) > maxName {
		h := fnv.New64a()
		h.Write([]byte(key))
		tail := fmt.Sprintf("-%016x%s", h.Sum64(), ext)
		name = name[:maxName-len(tail)] + tail
	}
	return filepath.Join(s.dir, name)
}

// encode renders the framed entry: header (magic, version, fingerprint,
// key) then length-prefixed, checksummed body.
func (s *Store) encode(key string, body []byte) []byte {
	var f bytes.Buffer
	f.Grow(len(key) + len(body) + 32)
	f.Write(magic[:])
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint32(u32[:], Version)
	f.Write(u32[:])
	binary.LittleEndian.PutUint64(u64[:], s.fp)
	f.Write(u64[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(key)))
	f.Write(u32[:])
	f.WriteString(key)
	binary.LittleEndian.PutUint64(u64[:], uint64(len(body)))
	f.Write(u64[:])
	sum := fnv.New64a()
	sum.Write(body)
	binary.LittleEndian.PutUint64(u64[:], sum.Sum64())
	f.Write(u64[:])
	f.Write(body)
	return f.Bytes()
}

// fixedHeader is the byte length of the fields before the variable key.
const fixedHeader = 4 + 4 + 8 + 4 // magic, version, fingerprint, keyLen

// parseHeader reads a frame's magic, version, fingerprint and key,
// returning the fingerprint, the key's bytes and the bytes after the
// key. ok=false on any header anomaly.
func parseHeader(raw []byte) (fp uint64, key, rest []byte, ok bool) {
	if len(raw) < fixedHeader || !bytes.Equal(raw[:4], magic[:]) ||
		binary.LittleEndian.Uint32(raw[4:8]) != Version {
		return 0, nil, nil, false
	}
	keyLen := int(binary.LittleEndian.Uint32(raw[16:20]))
	if keyLen < 0 || len(raw) < fixedHeader+keyLen {
		return 0, nil, nil, false
	}
	end := fixedHeader + keyLen
	return binary.LittleEndian.Uint64(raw[8:16]), raw[fixedHeader:end], raw[end:], true
}

// readKey extracts the embedded key from an entry file without
// validating the body (index-rebuild use). ok=false on any header
// anomaly.
func readKey(path string) (string, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	_, key, _, ok := parseHeader(raw)
	return string(key), ok
}

// decode validates a framed entry against key and the store fingerprint,
// returning the body. ok=false on any anomaly.
func (s *Store) decode(raw []byte, key string) ([]byte, bool) {
	fp, k, rest, ok := parseHeader(raw)
	if !ok || fp != s.fp || string(k) != key || len(rest) < 16 {
		return nil, false
	}
	bodyLen := binary.LittleEndian.Uint64(rest[:8])
	wantSum := binary.LittleEndian.Uint64(rest[8:16])
	body := rest[16:]
	if uint64(len(body)) != bodyLen {
		return nil, false
	}
	sum := fnv.New64a()
	sum.Write(body)
	if sum.Sum64() != wantSum {
		return nil, false
	}
	return body, true
}

// Get returns the stored payload for key. Any anomaly — missing file,
// damaged header or body, wrong fingerprint — is a miss; a damaged file
// is deleted so the next Put rebuilds it cleanly. A hit refreshes the
// entry's recency (in memory and, best-effort, the file mtime, so LRU
// order survives restarts).
func (s *Store) Get(key string) ([]byte, bool) {
	if s.faults != nil {
		o := s.faults.At(faultinject.ResultStoreGet)
		if o.Delay > 0 {
			time.Sleep(o.Delay)
		}
		if o.Err != nil {
			// An injected read fault is the same silent miss a damaged
			// frame would be — the caller regenerates.
			s.mu.Lock()
			s.misses++
			s.mu.Unlock()
			return nil, false
		}
	}
	path := s.path(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses++
		s.dropLocked(key)
		return nil, false
	}
	body, ok := s.decode(raw, key)
	if !ok {
		s.misses++
		s.dropLocked(key)
		os.Remove(path)
		return nil, false
	}
	s.hits++
	s.touchLocked(key)
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort: persists recency across restarts
	return body, true
}

// Put stores payload under key (overwriting any previous entry) and
// evicts least-recently-used entries beyond the bound. The write is
// atomic and durable: temp file + fsync + rename + parent-directory
// fsync, so concurrent readers — in this process or another sharing the
// directory — see either the old entry or the new one, never a torn
// file, and a power loss after Put returns cannot roll the entry back.
func (s *Store) Put(key string, payload []byte) error {
	framed := s.encode(key, payload)
	if err := atomicio.WriteFile(s.path(key), framed, 0o644, s.faults, faultinject.ResultStorePut); err != nil {
		return fmt.Errorf("resultstore: write %s: %w", key, err)
	}
	s.mu.Lock()
	s.puts++
	s.touchLocked(key)
	s.evictOverLocked()
	s.mu.Unlock()
	return nil
}

// touchLocked moves key to the most-recently-used end (inserting it if
// new).
func (s *Store) touchLocked(key string) {
	if s.present[key] {
		for i, k := range s.order {
			if k == key {
				s.order = append(append(s.order[:i:i], s.order[i+1:]...), key)
				return
			}
		}
	}
	s.present[key] = true
	s.order = append(s.order, key)
}

// dropLocked removes key from the index (file already gone or damaged).
func (s *Store) dropLocked(key string) {
	if !s.present[key] {
		return
	}
	delete(s.present, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i:i], s.order[i+1:]...)
			return
		}
	}
}

// evictOverLocked deletes least-recently-used entries until the store is
// within its bound.
func (s *Store) evictOverLocked() {
	if s.max <= 0 {
		return
	}
	for len(s.order) > s.max {
		victim := s.order[0]
		s.order = s.order[1:]
		delete(s.present, victim)
		os.Remove(s.path(victim))
		s.evictions++
	}
}
