// Package diskio is the fault-injectable storage layer every durability
// path in the repository routes file I/O through: the vertex value file
// (via internal/mmap), the gpsa-serve job journal, the CSR writers in
// internal/graph and internal/preprocess, and the benchmark artifact
// writers.
//
// The package does three things the raw os.File API does not:
//
//   - Fault injection. Every operation consults the disk.* sites in
//     internal/fault (ENOSPC on create/write/sync, EIO on
//     read/write/sync, short writes, torn syncs, bit-rot on whole-file
//     reads), so seeded torture plans can disturb exactly the Nth
//     operation of a durability protocol.
//
//   - Classification. Failures — real or injected — are wrapped with a
//     typed class, ErrDiskFull or ErrIOFailure, that callers branch on
//     (retry-with-backoff, degraded mode, abort) without string
//     matching. errors.Is sees through the wrapper to both the class
//     and the underlying error.
//
//   - Accounting. Classified write-path failures increment the
//     disk.write_errors counter (and disk.enospc for the disk-full
//     subset), the signal gpsa-serve's degraded-mode probe and the
//     disktest harness watch.
//
// The wrapper adds one predictable branch per call when no fault plan
// is active; it buffers nothing and never retries on its own — retry
// policy belongs to the caller, which knows what a failed write means
// for its protocol.
package diskio

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// ErrDiskFull is the typed class for failures that mean the volume is
// out of space (ENOSPC, EDQUOT, or an injected disk.enospc.* firing).
// Retrying without freeing space is pointless; callers should degrade.
var ErrDiskFull = errors.New("diskio: disk full")

// ErrIOFailure is the typed class for failures that mean the device or
// kernel could not complete the operation (EIO, short writes, torn
// syncs, or an injected disk.eio.* / disk.shortwrite.* /
// disk.torn-sync.* firing). After a failed sync the on-disk state of
// the unsynced tail is unknown; callers must re-verify or roll back.
var ErrIOFailure = errors.New("diskio: i/o failure")

// ErrCorrupt is the typed class for data that was read back but failed
// its integrity check (checksum or digest mismatch) — at-rest bit-rot
// or a torn write that slipped past the crash protocol. The scrubber
// quarantines and repairs artifacts that produce it.
var ErrCorrupt = errors.New("diskio: corrupt data")

// classified wraps an underlying error with its typed class and the
// operation context. Unwrap exposes both, so errors.Is(err, ErrDiskFull)
// and errors.Is(err, fault.ErrInjected) each work.
type classified struct {
	class error
	op    string
	path  string
	err   error
}

func (e *classified) Error() string {
	return fmt.Sprintf("%v: %s %s: %v", e.class, e.op, e.path, e.err)
}

func (e *classified) Unwrap() []error { return []error{e.class, e.err} }

// isFull reports whether err is a real out-of-space errno.
func isFull(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}

// Classify wraps a storage error with its typed class: ErrDiskFull for
// out-of-space errnos, ErrIOFailure for everything else. op names the
// failed operation ("write", "sync", "create", ...) and decides the
// accounting: write-path ops count into disk.write_errors, except a
// missing file (fs.ErrNotExist), which is not a disk failure. A nil err
// returns nil, and an already-classified error passes through
// unchanged, so callers can wrap unconditionally.
func Classify(op, path string, err error) error {
	if err == nil {
		return nil
	}
	var c *classified
	if errors.As(err, &c) {
		return err
	}
	class := ErrIOFailure
	if isFull(err) {
		class = ErrDiskFull
	}
	return classify(class, op, path, err)
}

func classify(class error, op, path string, err error) error {
	// A missing file is an answer, not a disk failure: read-only probes
	// open paths that may not exist yet.
	if op != "read" && !errors.Is(err, fs.ErrNotExist) {
		metrics.Inc(metrics.CtrDiskWriteErrors)
	}
	if class == ErrDiskFull {
		metrics.Inc(metrics.CtrDiskENOSPC)
	}
	return &classified{class: class, op: op, path: path, err: err}
}

// File wraps an *os.File with the disk.* fault sites and typed error
// classification. It implements io.Reader, io.Writer, io.ReaderAt,
// io.WriterAt, io.Seeker, and io.Closer.
type File struct {
	f *os.File
	// unsynced counts bytes written since the last successful Sync —
	// the tail a torn-sync firing tears.
	unsynced int64
}

// wrap adopts an already-open *os.File into the fault-injectable layer.
func wrap(f *os.File) *File { return &File{f: f} }

// openWrite consults the create-site and opens path for writing.
func openWrite(path string, flag int, perm os.FileMode) (*File, error) {
	if f := fault.Hit(fault.SiteDiskENOSPCCreate); f != nil {
		return nil, classify(ErrDiskFull, "create", path, f.Err)
	}
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, Classify("create", path, err)
	}
	return wrap(f), nil
}

// Create creates or truncates path for writing, like os.Create.
func Create(path string) (*File, error) {
	return openWrite(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// OpenFile is the generalized open. Opens that can write (O_WRONLY,
// O_RDWR, O_CREATE, O_APPEND) consult the create fault site; read-only
// opens do not.
func OpenFile(path string, flag int, perm os.FileMode) (*File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_APPEND) != 0 {
		return openWrite(path, flag, perm)
	}
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, Classify("open", path, err)
	}
	return wrap(f), nil
}

// Open opens path read-only, like os.Open.
func Open(path string) (*File, error) {
	return OpenFile(path, os.O_RDONLY, 0)
}

// CreateTemp creates a uniquely named temporary file in dir, like
// os.CreateTemp, under the create fault site.
func CreateTemp(dir, pattern string) (*File, error) {
	if f := fault.Hit(fault.SiteDiskENOSPCCreate); f != nil {
		return nil, classify(ErrDiskFull, "create", filepath.Join(dir, pattern), f.Err)
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, Classify("create", filepath.Join(dir, pattern), err)
	}
	return wrap(f), nil
}

// OpenRaw opens path with the given flags under the create fault site
// and returns the raw *os.File. It exists for the mmap layer, which
// needs the descriptor itself for mmap(2); descriptor-level reads and
// writes bypass the fault sites, so callers of OpenRaw must consult
// SyncFault on their own write-back paths.
func OpenRaw(path string, flag int, perm os.FileMode) (*os.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_APPEND) != 0 {
		if f := fault.Hit(fault.SiteDiskENOSPCCreate); f != nil {
			return nil, classify(ErrDiskFull, "create", path, f.Err)
		}
	}
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, Classify("open", path, err)
	}
	return f, nil
}

// writeFault consults the write-family fault sites for an n-byte write.
// It returns (prefix, err) where prefix is how many bytes the caller
// should actually write before failing with err (the short-write case);
// prefix is 0 for clean failures and -1 when no site fired.
func writeFault(path string, n int) (int, error) {
	if f := fault.Hit(fault.SiteDiskENOSPCWrite); f != nil {
		return 0, classify(ErrDiskFull, "write", path, f.Err)
	}
	if f := fault.Hit(fault.SiteDiskEIOWrite); f != nil {
		return 0, classify(ErrIOFailure, "write", path, f.Err)
	}
	if f := fault.Hit(fault.SiteDiskShortWrite); f != nil {
		return n / 2, classify(ErrIOFailure, "write", path, f.Err)
	}
	return -1, nil
}

// Write implements io.Writer under the write fault sites. A short-write
// firing puts a prefix of p in the file before failing — the torn-record
// case downstream checksums and journal replay must surface.
func (f *File) Write(p []byte) (int, error) {
	prefix, ferr := writeFault(f.f.Name(), len(p))
	if ferr != nil {
		n := 0
		if prefix > 0 {
			n, _ = f.f.Write(p[:prefix])
			f.unsynced += int64(n)
		}
		return n, ferr
	}
	n, err := f.f.Write(p)
	f.unsynced += int64(n)
	return n, Classify("write", f.f.Name(), err)
}

// WriteAt implements io.WriterAt under the write fault sites.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	prefix, ferr := writeFault(f.f.Name(), len(p))
	if ferr != nil {
		n := 0
		if prefix > 0 {
			n, _ = f.f.WriteAt(p[:prefix], off)
			f.unsynced += int64(n)
		}
		return n, ferr
	}
	n, err := f.f.WriteAt(p, off)
	f.unsynced += int64(n)
	return n, Classify("write", f.f.Name(), err)
}

// Read implements io.Reader under the EIO read fault site. io.EOF
// passes through unwrapped so the reader contract holds; real read
// errors are classified.
func (f *File) Read(p []byte) (int, error) {
	if fr := fault.Hit(fault.SiteDiskEIORead); fr != nil {
		return 0, classify(ErrIOFailure, "read", f.f.Name(), fr.Err)
	}
	n, err := f.f.Read(p)
	if err != nil && err != io.EOF {
		return n, Classify("read", f.f.Name(), err)
	}
	return n, err
}

// ReadAt implements io.ReaderAt under the EIO read fault site; io.EOF
// passes through unwrapped.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if fr := fault.Hit(fault.SiteDiskEIORead); fr != nil {
		return 0, classify(ErrIOFailure, "read", f.f.Name(), fr.Err)
	}
	n, err := f.f.ReadAt(p, off)
	if err != nil && err != io.EOF {
		return n, Classify("read", f.f.Name(), err)
	}
	return n, err
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}

// Truncate changes the size of the file.
func (f *File) Truncate(size int64) error {
	return Classify("truncate", f.f.Name(), f.f.Truncate(size))
}

// Sync flushes the file to stable storage under the sync fault sites.
// A torn-sync firing truncates part of the unsynced tail before
// failing, simulating a power cut mid-write-back; after any sync
// failure the on-disk state of recently written bytes is unknown.
func (f *File) Sync() error {
	if fr := fault.Hit(fault.SiteDiskENOSPCSync); fr != nil {
		return classify(ErrDiskFull, "sync", f.f.Name(), fr.Err)
	}
	if fr := fault.Hit(fault.SiteDiskEIOSync); fr != nil {
		return classify(ErrIOFailure, "sync", f.f.Name(), fr.Err)
	}
	if fr := fault.Hit(fault.SiteDiskTornSync); fr != nil {
		f.tear()
		return classify(ErrIOFailure, "sync", f.f.Name(), fr.Err)
	}
	if err := f.f.Sync(); err != nil {
		return Classify("sync", f.f.Name(), err)
	}
	f.unsynced = 0
	return nil
}

// tear truncates away roughly half of the bytes written since the last
// successful sync, leaving a torn record: a prefix of the fresh tail
// survives, the rest is gone. With no unsynced bytes it does nothing.
func (f *File) tear() {
	if f.unsynced <= 0 {
		return
	}
	st, err := f.f.Stat()
	if err != nil {
		return
	}
	keep := f.unsynced / 2
	cut := f.unsynced - keep
	if cut > st.Size() {
		cut = st.Size()
	}
	_ = f.f.Truncate(st.Size() - cut)
}

// Close closes the file. The close itself is not a fault site — the
// durability-relevant failure is the sync before it.
func (f *File) Close() error {
	return Classify("close", f.f.Name(), f.f.Close())
}

// Name returns the path the file was opened with.
func (f *File) Name() string { return f.f.Name() }

// Stat returns the FileInfo describing the file.
func (f *File) Stat() (os.FileInfo, error) { return f.f.Stat() }

// OS returns the underlying *os.File for callers that need the raw
// descriptor (mmap). Operations on it bypass the fault sites.
func (f *File) OS() *os.File { return f.f }

// SyncFault consults the sync-family fault sites on behalf of a caller
// that syncs through a raw descriptor or msync (the mmap layer), so
// mmap-backed durability paths share the injection vocabulary of
// descriptor-backed ones. The torn-sync site is deliberately not
// consulted here: truncating a mapped file would SIGBUS the process
// rather than simulate a power cut. Returns the classified injected
// error, or nil.
func SyncFault(path string) error {
	if fr := fault.Hit(fault.SiteDiskENOSPCSync); fr != nil {
		return classify(ErrDiskFull, "sync", path, fr.Err)
	}
	if fr := fault.Hit(fault.SiteDiskEIOSync); fr != nil {
		return classify(ErrIOFailure, "sync", path, fr.Err)
	}
	return nil
}

// WriteFile writes data to path (create or truncate), syncs it, and
// closes it — os.WriteFile with durability and fault coverage. On any
// failure the typed error is returned and the file may hold a partial
// or unsynced prefix; callers that need all-or-nothing use
// WriteFileAtomic.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	f, err := openWrite(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.f.Close() //lint:syncerr error path: the write already failed and is being reported
		return err
	}
	if err := f.Sync(); err != nil {
		f.f.Close() //lint:syncerr error path: the sync already failed and is being reported
		return err
	}
	return f.Close()
}

// WriteFileAtomic writes data to a temp file in path's directory,
// syncs it, renames it over path, and syncs the directory — the
// all-or-nothing publish used for artifacts readers may open
// concurrently. On failure path is untouched (old content or absent)
// and the temp file is removed.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func() {
		f.f.Close() //lint:syncerr error path: the operation already failed and is being reported
		os.Remove(tmp)
	}
	if _, err := f.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Chmod(tmp, perm); err != nil {
		os.Remove(tmp)
		return Classify("chmod", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return Classify("rename", path, err)
	}
	return SyncDir(dir)
}

// ReadFile reads the whole file under the EIO-read and bit-rot fault
// sites. A bit-rot firing flips one bit of the returned bytes — sealed
// data rotting at rest — which downstream digests must detect.
func ReadFile(path string) ([]byte, error) {
	if fr := fault.Hit(fault.SiteDiskEIORead); fr != nil {
		return nil, classify(ErrIOFailure, "read", path, fr.Err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if fr := fault.Hit(fault.SiteDiskBitrot); fr != nil && len(data) > 0 {
		i := len(data) / 2
		data[i] ^= 1 << (uint(i) % 8)
	}
	return data, nil
}

// Rot flips one bit of the file at path in place — the injection hook
// the disktest harness and scrub tests use to plant at-rest corruption
// deterministically. off is clamped into the file; the flipped bit is
// 1<<(off%8). Not a fault site: this is test scaffolding for the
// scrubber, exported so harnesses outside the package can use it.
func Rot(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0) //lint:syncerr test scaffolding: deliberate corruption, durability is the point of failure under test
	if err != nil {
		return err
	}
	defer f.Close() //lint:syncerr test scaffolding: read-modify-write of one byte, sync not needed
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return fmt.Errorf("diskio: cannot rot empty file %s", path)
	}
	if off < 0 {
		off = 0
	}
	if off >= st.Size() {
		off = st.Size() - 1
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 1 << (uint(off) % 8)
	if _, err := f.WriteAt(b[:], off); err != nil {
		return err
	}
	return f.Sync()
}

// SyncDir fsyncs the directory at dir, making a just-created or
// just-renamed entry durable. The classic crash-consistency gap:
// fsync(file) persists the bytes, only fsync(parent dir) persists the
// name.
func SyncDir(dir string) error {
	if fr := fault.Hit(fault.SiteDiskEIOSync); fr != nil {
		return classify(ErrIOFailure, "sync", dir, fr.Err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return Classify("open", dir, err)
	}
	defer d.Close() //lint:syncerr read-only descriptor: the fsync result below is what matters
	if err := d.Sync(); err != nil {
		return Classify("sync", dir, err)
	}
	return nil
}

// FreeSpace reports the bytes available to unprivileged writes on the
// volume holding path. A disk.enospc.preflight firing reports zero, so
// admission and adoption preflight gates can be exercised without
// filling a real disk. On platforms without statfs it returns
// errors.ErrUnsupported; callers treat that as "unknown" and skip the
// gate rather than refusing work.
func FreeSpace(path string) (uint64, error) {
	if fr := fault.Hit(fault.SiteDiskENOSPCPreflight); fr != nil {
		return 0, nil
	}
	return freeSpace(path)
}
