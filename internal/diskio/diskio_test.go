package diskio

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
)

func armOne(t *testing.T, site string) {
	t.Helper()
	fault.Activate(fault.NewPlan(1, fault.Injection{Site: site}))
	t.Cleanup(fault.Deactivate)
}

func TestCreateENOSPC(t *testing.T) {
	metrics.ResetCounters()
	armOne(t, fault.SiteDiskENOSPCCreate)
	path := filepath.Join(t.TempDir(), "f")
	_, err := Create(path)
	if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("Create under enospc.create: got %v, want ErrDiskFull", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected error not recognizable: %v", err)
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("file exists after failed create")
	}
	if metrics.Counter(metrics.CtrDiskENOSPC) == 0 || metrics.Counter(metrics.CtrDiskWriteErrors) == 0 {
		t.Fatalf("disk.enospc/disk.write_errors not incremented")
	}
}

func TestWriteENOSPCLeavesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	armOne(t, fault.SiteDiskENOSPCWrite)
	n, err := f.Write([]byte("hello"))
	if n != 0 || !errors.Is(err, ErrDiskFull) {
		t.Fatalf("Write under enospc.write: n=%d err=%v, want 0, ErrDiskFull", n, err)
	}
	st, _ := f.Stat()
	if st.Size() != 0 {
		t.Fatalf("bytes reached the file despite clean ENOSPC: size=%d", st.Size())
	}
}

func TestShortWriteLeavesPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	armOne(t, fault.SiteDiskShortWrite)
	payload := []byte("hello world!")
	n, err := f.Write(payload)
	if !errors.Is(err, ErrIOFailure) {
		t.Fatalf("short write: err=%v, want ErrIOFailure", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("short write wrote n=%d, want prefix %d", n, len(payload)/2)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, payload[:n]) {
		t.Fatalf("file holds %q, want the prefix %q", got, payload[:n])
	}
}

func TestTornSyncTearsUnsyncedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stable := []byte("stable-record\n")
	if _, err := f.Write(stable); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fresh := []byte("fresh-record-that-tears\n")
	if _, err := f.Write(fresh); err != nil {
		t.Fatal(err)
	}
	armOne(t, fault.SiteDiskTornSync)
	if err := f.Sync(); !errors.Is(err, ErrIOFailure) {
		t.Fatalf("torn sync: err=%v, want ErrIOFailure", err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.HasPrefix(got, stable) {
		t.Fatalf("synced prefix damaged by torn sync: %q", got)
	}
	if len(got) >= len(stable)+len(fresh) {
		t.Fatalf("torn sync tore nothing: size=%d", len(got))
	}
	if len(got) <= len(stable) {
		t.Fatalf("torn sync must leave a torn prefix of the fresh tail, got clean rollback")
	}
}

func TestEIOSyncAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	armOne(t, fault.SiteDiskEIOSync)
	if err := f.Sync(); !errors.Is(err, ErrIOFailure) {
		t.Fatalf("sync under eio.sync: %v", err)
	}
	f.Close()

	armOne(t, fault.SiteDiskEIORead)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var buf [1]byte
	if _, err := r.Read(buf[:]); !errors.Is(err, ErrIOFailure) {
		t.Fatalf("read under eio.read: %v", err)
	}
}

func TestReadFileBitrotFlipsOneBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	payload := bytes.Repeat([]byte{0xAA}, 64)
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	armOne(t, fault.SiteDiskBitrot)
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if got[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bitrot changed %d bytes, want exactly 1", diff)
	}
	clean, err := ReadFile(path)
	if err != nil || !bytes.Equal(clean, payload) {
		t.Fatalf("on-disk bytes must be untouched by read-path bitrot: err=%v", err)
	}
}

func TestRotCorruptsInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	payload := bytes.Repeat([]byte{0x55}, 32)
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Rot(path, 10); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if bytes.Equal(got, payload) {
		t.Fatalf("Rot changed nothing")
	}
	if err := Rot(path, 10); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if !bytes.Equal(got, payload) {
		t.Fatalf("double Rot at same offset must restore the original")
	}
}

func TestWriteFileAtomicFailureLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	armOne(t, fault.SiteDiskENOSPCWrite)
	err := WriteFileAtomic(path, []byte("v2-much-longer"), 0o644)
	if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("atomic write under enospc: %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "v1" {
		t.Fatalf("target damaged by failed atomic write: %q", got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("temp file leaked: %v", ents)
	}
}

func TestWriteFileTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	armOne(t, fault.SiteDiskEIOWrite)
	if err := WriteFile(path, []byte("x"), 0o644); !errors.Is(err, ErrIOFailure) {
		t.Fatalf("WriteFile under eio.write: %v", err)
	}
	if err := WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatalf("clean WriteFile: %v", err)
	}
}

func TestFreeSpace(t *testing.T) {
	free, err := FreeSpace(t.TempDir())
	if errors.Is(err, errors.ErrUnsupported) {
		t.Skip("statfs unsupported on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	if free == 0 {
		t.Fatalf("zero free space on a writable tmpdir")
	}
	armOne(t, fault.SiteDiskENOSPCPreflight)
	free, err = FreeSpace(t.TempDir())
	if err != nil || free != 0 {
		t.Fatalf("preflight firing must report zero free: free=%d err=%v", free, err)
	}
}

func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	armOne(t, fault.SiteDiskEIOSync)
	if err := SyncDir(dir); !errors.Is(err, ErrIOFailure) {
		t.Fatalf("SyncDir under eio.sync: %v", err)
	}
}

func TestClassifyPassthrough(t *testing.T) {
	if Classify("write", "p", nil) != nil {
		t.Fatalf("nil must classify to nil")
	}
	err := Classify("write", "p", errors.New("boom"))
	if !errors.Is(err, ErrIOFailure) {
		t.Fatalf("generic error class: %v", err)
	}
	if again := Classify("sync", "p", err); again != err {
		t.Fatalf("already-classified error must pass through")
	}
}

// TestMissingFileIsNotAWriteError pins the failure accounting: a read-
// only probe of a path that does not exist yet is an answer, not a disk
// failure, so disk.write_errors must not move — while an armed
// disk.enospc.create on the same path still counts.
func TestMissingFileIsNotAWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing")
	before := metrics.Counter(metrics.CtrDiskWriteErrors)
	_, err := OpenRaw(path, os.O_RDONLY, 0)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("OpenRaw of a missing path: got %v, want fs.ErrNotExist", err)
	}
	if got := metrics.Counter(metrics.CtrDiskWriteErrors); got != before {
		t.Fatalf("disk.write_errors moved %d -> %d on a missing file", before, got)
	}

	armOne(t, fault.SiteDiskENOSPCCreate)
	if _, err := Create(path); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("Create under enospc.create: got %v, want ErrDiskFull", err)
	}
	if got := metrics.Counter(metrics.CtrDiskWriteErrors); got != before+1 {
		t.Fatalf("disk.write_errors = %d after an injected ENOSPC, want %d", got, before+1)
	}
}
