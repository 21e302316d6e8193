// Package iofault abstracts the filesystem operations the daemon's
// durability layer performs — opens, writes, fsyncs, renames, removes —
// behind a small FS interface with two implementations: a production
// passthrough to the os package, and a deterministic fault injector that
// turns the same calls into the disk failures a long-running service
// eventually meets (ENOSPC, EIO on fsync, torn writes, failed removes,
// slow I/O).
//
// The injector follows the same composable, seed-deterministic style as
// internal/fault: each Rule models one hostile disk condition, rules
// compose on one Injector, every stochastic choice derives from the
// injector's seed, and the injector records what it injected so tests
// can assert exact fault counts for a fixed seed. Rules can be switched
// on and off at runtime (SetActive), which is how chaos tests model a
// fault window that later clears.
package iofault

import (
	"io"
	"io/fs"
	"os"
)

// FS is the filesystem surface the service layer consumes. It is the
// minimal set of operations store and journal code performs; anything
// not needed for durability (chmod, symlinks, ...) is deliberately
// absent so a fault implementation stays small and complete.
type FS interface {
	// MkdirAll creates a directory path along with any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// OpenFile opens a file with the given flags (create, append, ...).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Open opens a file (or directory, for directory fsync) read-only.
	Open(name string) (File, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes one file.
	Remove(name string) error
	// RemoveAll deletes a tree.
	RemoveAll(path string) error
}

// File is the open-file surface: sequential reads and writes, fsync,
// and truncate (the journal's torn-append repair path).
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Name() string
}

// osFS is the production passthrough.
type osFS struct{}

// OS returns the production FS: every call forwards to the os package.
func OS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                { return os.RemoveAll(path) }
