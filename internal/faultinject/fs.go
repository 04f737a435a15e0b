// File-operation fault injection: a failpoint-style hook layer over the
// mutating filesystem calls a write-ahead log makes — create, write,
// sync, close, rename, remove, directory sync — in the spirit of
// go-failpoint instrumentation and dm-flakey device testing.
//
// internal/store routes every mutation through the FS interface; OSFS is
// the production passthrough and CrashFS is the torture-test double. A
// CrashFS counts operations, "crashes" at a chosen operation index (the
// operation does not execute and every later one fails with ErrCrashed),
// and models page-cache durability: bytes written but not yet fsynced are
// discarded by CrashImage, exactly what a power cut does to a real file.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// FS is the mutating-filesystem surface of the storage engine. Reads are
// not hooked: crash simulation rewrites the real files before reopen, so
// recovery can read them with plain os calls.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// SyncDir fsyncs the directory containing path, making a just-created
	// or just-renamed directory entry durable.
	SyncDir(path string) error
}

// File is the mutating file handle surface used by the WAL.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// ErrCrashed is returned by every CrashFS operation at and after the
// injected crash point.
var ErrCrashed = errors.New("faultinject: simulated crash")

// OSFS is the production FS: direct os calls.
type OSFS struct{}

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// SyncDir implements FS. Some platforms refuse fsync on directories;
// those report a PathError we treat as "the platform gives no stronger
// guarantee" rather than a storage failure.
func (OSFS) SyncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("faultinject: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		var pe *os.PathError
		if errors.As(err, &pe) {
			return nil
		}
		return fmt.Errorf("faultinject: sync dir: %w", err)
	}
	return nil
}

// Op identifies one intercepted filesystem operation.
type Op struct {
	// N is the 1-based global operation index.
	N int
	// Kind is one of "create", "write", "sync", "close", "rename",
	// "remove", "syncdir".
	Kind string
	// Path is the primary path the operation touches.
	Path string
}

// CrashFS wraps OSFS with operation counting, an injectable crash point
// and a page-cache durability model. Safe for concurrent use.
type CrashFS struct {
	// CrashAt, when > 0, makes the CrashAt-th operation (1-based) fail
	// with ErrCrashed WITHOUT executing, along with every operation after
	// it — the moment the process "died".
	CrashAt int
	// Hook, when set, runs before each operation; a non-nil return aborts
	// that operation with the returned error (the fault is not sticky).
	// Used to inject targeted failures (e.g. "the snapshot rename fails").
	Hook func(Op) error

	mu      sync.Mutex
	ops     int
	crashed bool
	files   map[string]*fileDurability // live path -> durability state
}

// fileDurability tracks how much of a file the simulated page cache has
// flushed: size grows with every write, durable only on sync.
type fileDurability struct {
	size    int64
	durable int64
}

// NewCrashFS returns a CrashFS with no crash point set (pass-through,
// still counting operations and tracking durability).
func NewCrashFS() *CrashFS {
	return &CrashFS{files: make(map[string]*fileDurability)}
}

// gate counts one operation and decides whether it may execute.
func (c *CrashFS) gate(kind, path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	c.ops++
	if c.Hook != nil {
		if err := c.Hook(Op{N: c.ops, Kind: kind, Path: path}); err != nil {
			return err
		}
	}
	if c.CrashAt > 0 && c.ops >= c.CrashAt {
		c.crashed = true
		return ErrCrashed
	}
	return nil
}

// Ops returns how many operations have been attempted so far. A clean
// run's final count is the crash-point schedule for torture tests.
func (c *CrashFS) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Crashed reports whether the crash point has fired.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Create implements FS.
func (c *CrashFS) Create(name string) (File, error) {
	if err := c.gate("create", name); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	c.mu.Lock() //lint:allow nakedlock short registration section; no early return before Unlock
	c.files[name] = &fileDurability{}
	c.mu.Unlock()
	return &crashFile{fs: c, f: f}, nil
}

// Rename implements FS. The durability state follows the file to its new
// name. Directory-entry volatility is deliberately NOT modeled (a rename
// is treated as durable once executed); crash-before-rename is its own
// crash point, which covers the interesting half of the window.
func (c *CrashFS) Rename(oldpath, newpath string) error {
	if err := c.gate("rename", oldpath); err != nil {
		return err
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	c.mu.Lock() //lint:allow nakedlock short map update after the real rename; no early return
	if st, ok := c.files[oldpath]; ok {
		delete(c.files, oldpath)
		c.files[newpath] = st
	}
	c.mu.Unlock()
	return nil
}

// Remove implements FS.
func (c *CrashFS) Remove(name string) error {
	if err := c.gate("remove", name); err != nil {
		return err
	}
	if err := os.Remove(name); err != nil {
		return err
	}
	c.mu.Lock() //lint:allow nakedlock short map delete after the real remove; no early return
	delete(c.files, name)
	c.mu.Unlock()
	return nil
}

// SyncDir implements FS.
func (c *CrashFS) SyncDir(path string) error {
	if err := c.gate("syncdir", path); err != nil {
		return err
	}
	return OSFS{}.SyncDir(path)
}

// CrashImage rewrites the tracked files into a legal post-crash state and
// must only be called once the workload has stopped (every pending
// operation has returned). keepTail selects how much of the un-fsynced
// tail the "page cache" had happened to flush on its own:
//
//	0 — none: every file is truncated to its last explicit fsync, the
//	    adversarial minimum a crash guarantees;
//	1 — all: the tail survives intact, the lucky maximum (write-back
//	    completed just before the cut).
//
// Intermediate fractions keep a prefix of the tail, modeling a partial
// write-back that tears the final frame.
func (c *CrashFS) CrashImage(keepTail float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for path, st := range c.files {
		keep := st.durable + int64(keepTail*float64(st.size-st.durable))
		if keep > st.size {
			keep = st.size
		}
		if keep < st.size {
			if err := os.Truncate(path, keep); err != nil {
				if os.IsNotExist(err) {
					continue
				}
				return fmt.Errorf("faultinject: crash image %s: %w", path, err)
			}
		}
	}
	return nil
}

// crashFile wraps an *os.File with the shared gate and durability
// tracking. The tracked name is resolved at call time so a rename of the
// path (snapshot tmp -> final) keeps accounting against the same state.
type crashFile struct {
	fs *CrashFS
	f  *os.File
}

// Name implements File.
func (cf *crashFile) Name() string { return cf.f.Name() }

// state finds the durability record for this handle's original path or
// its renamed successor. Caller holds fs.mu.
func (cf *crashFile) state() *fileDurability {
	if st, ok := cf.fs.files[cf.f.Name()]; ok {
		return st
	}
	// Renamed while open: scan for the moved record is not possible by
	// name alone, so track under the current name from here on.
	st := &fileDurability{}
	cf.fs.files[cf.f.Name()] = st
	return st
}

// Write implements File.
func (cf *crashFile) Write(p []byte) (int, error) {
	if err := cf.fs.gate("write", cf.f.Name()); err != nil {
		return 0, err
	}
	n, err := cf.f.Write(p)
	cf.fs.mu.Lock() //lint:allow nakedlock size bookkeeping between write and return; no early return
	cf.state().size += int64(n)
	cf.fs.mu.Unlock()
	return n, err
}

// Sync implements File: everything written so far becomes durable.
func (cf *crashFile) Sync() error {
	if err := cf.fs.gate("sync", cf.f.Name()); err != nil {
		return err
	}
	if err := cf.f.Sync(); err != nil {
		return err
	}
	cf.fs.mu.Lock() //lint:allow nakedlock durability bookkeeping after a successful fsync; no early return
	st := cf.state()
	st.durable = st.size
	cf.fs.mu.Unlock()
	return nil
}

// Close implements File. Closing does NOT flush: un-fsynced bytes stay
// volatile, which is precisely the bug class the torture harness exists
// to catch.
func (cf *crashFile) Close() error {
	if err := cf.fs.gate("close", cf.f.Name()); err != nil {
		// The process is gone; release the real descriptor anyway so the
		// test process does not leak it.
		cf.f.Close()
		return err
	}
	return cf.f.Close()
}
