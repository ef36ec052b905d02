package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// memFS is an in-memory store.FS: the store's own filesystem seam, with
// files kept in this process instead of the kernel. The HTTP workloads back
// their disk stores with it, as the measurements behind the workloads put
// stores on tmpfs. The container disk takes 260-490 ms to create 512 small
// files and swings that much from run to run, which would swamp everything
// else cold-grid measures, and a benchmark that keeps inside its checkout
// cannot use /dev/shm. The store still encodes, checksums, and writes
// every record through the same calls; only the kernel side is absent.
type memFS struct {
	mu       sync.Mutex
	files    map[string]memFile
	children map[string]map[string]bool // directory -> entry names
	gen      uint64
}

// memFile is one file; gen changes on every write, like an inode on an
// atomic replace.
type memFile struct {
	data []byte
	gen  uint64
}

func newMemFS() *memFS {
	return &memFS{files: map[string]memFile{}, children: map[string]map[string]bool{".": {}, "/": {}}}
}

func notExist(op, path string) error { return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist} }

func (m *memFS) MkdirAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var missing []string
	for d := filepath.Clean(path); m.children[d] == nil; d = filepath.Dir(d) {
		missing = append(missing, d)
	}
	for i := len(missing) - 1; i >= 0; i-- {
		d := missing[i]
		m.children[d] = map[string]bool{}
		m.children[filepath.Dir(d)][filepath.Base(d)] = true
	}
	return nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(path)]
	if !ok {
		return nil, notExist("open", path)
	}
	return bytes.Clone(f.data), nil
}

// put stores data at path; the caller holds m.mu.
func (m *memFS) put(op, path string, data []byte) error {
	path = filepath.Clean(path)
	dir := m.children[filepath.Dir(path)]
	if dir == nil {
		return notExist(op, path)
	}
	dir[filepath.Base(path)] = true
	m.gen++
	m.files[path] = memFile{data: data, gen: m.gen}
	return nil
}

func (m *memFS) WriteFileAtomic(path string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.put("create", path, bytes.Clone(data))
}

func (m *memFS) Append(path string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.files[filepath.Clean(path)].data
	return m.put("open", path, append(bytes.Clone(old), data...))
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath = filepath.Clean(oldpath)
	f, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	if err := m.put("rename", newpath, f.data); err != nil {
		return err
	}
	m.drop(oldpath)
	return nil
}

// drop removes a file; the caller holds m.mu.
func (m *memFS) drop(path string) {
	delete(m.files, path)
	delete(m.children[filepath.Dir(path)], filepath.Base(path))
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drop(filepath.Clean(path))
	return nil
}

func (m *memFS) ReadDir(path string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	var out []fs.DirEntry
	for name := range m.children[path] {
		p := filepath.Join(path, name)
		f, isFile := m.files[p]
		out = append(out, memEntry{name: name, dir: !isFile, size: int64(len(f.data))})
	}
	slices.SortFunc(out, func(a, b fs.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out, nil
}

// snapshot lists every file under dir, in the form storeFiles gives for a
// directory on disk.
func (m *memFS) snapshot(dir string) map[string]fileState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]fileState{}
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	for p, f := range m.files {
		if rel, ok := strings.CutPrefix(p, prefix); ok {
			out[rel] = fileState{ino: f.gen, size: int64(len(f.data))}
		}
	}
	return out
}

// memEntry is a directory entry and its file info.
type memEntry struct {
	name string
	dir  bool
	size int64
}

func (e memEntry) Name() string { return e.name }
func (e memEntry) IsDir() bool  { return e.dir }
func (e memEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memEntry) Info() (fs.FileInfo, error) { return e, nil }
func (e memEntry) Size() int64                { return e.size }
func (e memEntry) Mode() fs.FileMode          { return e.Type() | 0o644 }
func (e memEntry) ModTime() time.Time         { return time.Time{} }
func (e memEntry) Sys() any                   { return nil }
