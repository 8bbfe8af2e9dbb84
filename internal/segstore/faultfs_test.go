package segstore

import (
	"io/fs"
	"os"
	"sync"
)

// faultFS is the test half of the filesystem seam (fs.go): it delegates
// to osFS, counts every operation in order, and injects failures three
// ways — a single-shot fault armed at one operation index (the fault
// matrix sweeps that index across a whole workload), a "wedge" that
// fails every operation of one kind until cleared (a disk that stays
// broken: full, unplugged, remounting), and a hold that stalls the next
// operation of one kind until the test releases it, then fails it (a
// slow fsync that a concurrent operation races). Short-write mode
// delivers half the bytes before failing, the shape torn-tail recovery
// exists for.
type faultFS struct {
	mu    sync.Mutex
	n     int        // operations so far
	trace []string   // operation kinds, in order
	armAt int        // operation index to fail once; <0 disarmed
	err   error      // injected error for arm, wedge and hold faults
	short bool       // armed Write faults deliver half the bytes first
	fired bool       // the armed fault went off
	wedge string     // while non-empty, every op of this kind fails
	hold  *faultHold // the next op of hold.kind stalls, then fails
}

// faultHold is one armed hold: the operation it catches closes started,
// blocks until release is closed, then fails with the injected error.
type faultHold struct {
	kind             string
	started, release chan struct{}
}

func newFaultFS() *faultFS { return &faultFS{armAt: -1} }

// holdNext arms a hold on the next operation of kind.
func (ff *faultFS) holdNext(kind string) *faultHold {
	h := &faultHold{kind: kind, started: make(chan struct{}), release: make(chan struct{})}
	ff.mu.Lock()
	ff.hold = h
	ff.mu.Unlock()
	return h
}

// step counts one operation and reports whether to inject its failure.
// A held operation blocks here, outside ff.mu, until released.
func (ff *faultFS) step(kind string) bool {
	ff.mu.Lock()
	i := ff.n
	ff.n++
	ff.trace = append(ff.trace, kind)
	h := ff.hold
	if h != nil && h.kind == kind {
		ff.hold = nil
	} else {
		h = nil
	}
	fail := ff.wedge == kind
	if !fail && i == ff.armAt {
		ff.fired, fail = true, true
	}
	ff.mu.Unlock()
	if h != nil {
		close(h.started)
		<-h.release
		return true
	}
	return fail
}

func (ff *faultFS) ops() int {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.n
}

func (ff *faultFS) kindAt(i int) string {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.trace[i]
}

// hasFired reports whether the armed fault has gone off.
func (ff *faultFS) hasFired() bool {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.fired
}

func (ff *faultFS) setWedge(kind string) {
	ff.mu.Lock()
	ff.wedge = kind
	ff.mu.Unlock()
}

// opsOfKind counts operations of one kind seen so far.
func (ff *faultFS) opsOfKind(kind string) int {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	n := 0
	for _, k := range ff.trace {
		if k == kind {
			n++
		}
	}
	return n
}

func (ff *faultFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	if ff.step("openfile") {
		return nil, ff.err
	}
	f, err := (osFS{}).OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, ff: ff}, nil
}

func (ff *faultFS) Open(name string) (file, error) {
	if ff.step("open") {
		return nil, ff.err
	}
	f, err := (osFS{}).Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, ff: ff}, nil
}

func (ff *faultFS) ReadFile(name string) ([]byte, error) {
	if ff.step("readfile") {
		return nil, ff.err
	}
	return os.ReadFile(name)
}

func (ff *faultFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if ff.step("writefile") {
		return ff.err
	}
	return os.WriteFile(name, data, perm)
}

func (ff *faultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if ff.step("readdir") {
		return nil, ff.err
	}
	return os.ReadDir(name)
}

func (ff *faultFS) Stat(name string) (os.FileInfo, error) {
	if ff.step("stat") {
		return nil, ff.err
	}
	return os.Stat(name)
}

func (ff *faultFS) MkdirAll(path string, perm os.FileMode) error {
	if ff.step("mkdirall") {
		return ff.err
	}
	return os.MkdirAll(path, perm)
}

func (ff *faultFS) Remove(name string) error {
	if ff.step("remove") {
		return ff.err
	}
	return os.Remove(name)
}

func (ff *faultFS) Rename(oldpath, newpath string) error {
	if ff.step("rename") {
		return ff.err
	}
	return os.Rename(oldpath, newpath)
}

// faultFile wraps an open file with the same injection points.
type faultFile struct {
	f  file
	ff *faultFS
}

func (w *faultFile) Write(b []byte) (int, error) {
	if w.ff.step("write") {
		if w.ff.short && len(b) > 1 {
			// A torn write: half the bytes reach the disk for real, then
			// the "device" fails.
			n, _ := w.f.Write(b[: len(b)/2 : len(b)/2])
			return n, w.ff.err
		}
		return 0, w.ff.err
	}
	return w.f.Write(b)
}

func (w *faultFile) WriteAt(b []byte, off int64) (int, error) {
	if w.ff.step("writeat") {
		return 0, w.ff.err
	}
	return w.f.WriteAt(b, off)
}

func (w *faultFile) ReadAt(b []byte, off int64) (int, error) {
	if w.ff.step("readat") {
		return 0, w.ff.err
	}
	return w.f.ReadAt(b, off)
}

func (w *faultFile) Seek(offset int64, whence int) (int64, error) {
	if w.ff.step("seek") {
		return 0, w.ff.err
	}
	return w.f.Seek(offset, whence)
}

func (w *faultFile) Truncate(size int64) error {
	if w.ff.step("truncate") {
		return w.ff.err
	}
	return w.f.Truncate(size)
}

func (w *faultFile) Sync() error {
	if w.ff.step("sync") {
		return w.ff.err
	}
	return w.f.Sync()
}

func (w *faultFile) Close() error {
	if w.ff.step("close") {
		return w.ff.err
	}
	return w.f.Close()
}
