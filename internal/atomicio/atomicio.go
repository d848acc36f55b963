// Package atomicio is the one place the repo writes files atomically
// and durably. Every store that used hand-rolled temp+rename had the
// same gap: nothing called Sync, so a power loss after rename could
// leave a renamed-but-empty frame — the name survived, the bytes didn't.
// WriteFile closes that gap with the full discipline: write to a
// pid-unique temp file in the destination directory, fsync the file,
// rename over the target, then fsync the parent directory so the rename
// itself is durable.
//
// The helper also hosts the write-side fault hooks: given a non-nil
// fault plane and point name it can tear the write (a partial frame at
// the final path — exactly the crash state the fsync discipline
// prevents), flip a byte silently (media corruption the reader's
// checksum must absorb), fail with ENOSPC, or stall. Readers built on
// "any anomaly is a silent miss" get exercised against the real damage
// shapes instead of synthetic ones.
package atomicio

import (
	"fmt"
	"os"
	"path/filepath"

	"r3dla/internal/faultinject"
)

// WriteFile writes data to path atomically and durably. faults may be
// nil (the production path); with a plane armed at point, injected
// write faults apply before any bytes move.
func WriteFile(path string, data []byte, perm os.FileMode, faults *faultinject.Plane, point string) error {
	if faults != nil {
		o := faults.At(point)
		if o.Delay > 0 {
			sleep(o.Delay)
		}
		if o.Err != nil {
			return o.Err
		}
		if o.Torn {
			// A crash mid-write: a truncated image lands at the final
			// path (no fsync, no rename ceremony — that's the point) and
			// the caller sees the failure a real crash would leave behind.
			n := int(o.Frac * float64(len(data)))
			if n >= len(data) && len(data) > 0 {
				n = len(data) - 1
			}
			if err := os.WriteFile(path, data[:n], perm); err != nil {
				return err
			}
			return fmt.Errorf("%w: torn write at %s", faultinject.ErrInjected, point)
		}
		if o.Corrupt && len(data) > 0 {
			// Silent single-byte corruption: the write "succeeds" and
			// only the reader's checksum can tell.
			i := int(o.Frac * float64(len(data)))
			if i >= len(data) {
				i = len(data) - 1
			}
			mutated := make([]byte, len(data))
			copy(mutated, data)
			mutated[i] ^= 0xff
			data = mutated
		}
	}

	dir := filepath.Dir(path)
	// Pid-unique pattern: temp names can never collide across processes
	// sharing the directory (two servers pointed at one cache dir).
	f, err := os.CreateTemp(dir, fmt.Sprintf(".tmp-%d-*", os.Getpid()))
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	if err := f.Chmod(perm); err != nil {
		cleanup()
		return err
	}
	if _, err := f.Write(data); err != nil {
		cleanup()
		return err
	}
	// Sync before rename: once the new name is visible it must point at
	// complete bytes, not a page cache promise.
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Sync the parent so the rename (the commit point) survives power
	// loss too. Best-effort on filesystems that refuse directory fsync.
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making renames and creates within it
// durable. Errors from filesystems that don't support directory fsync
// are swallowed — the write already succeeded, durability is as good as
// the platform allows.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return err
	}
	return nil
}
