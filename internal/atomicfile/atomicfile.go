// Package atomicfile publishes files so that a reader — or a process
// restarted after a crash — sees either the complete old content or the
// complete new content of a path, never a mixture: the bytes go to a
// temporary sibling, are fsynced and closed, and only then renamed over the
// final name. tsdb segments and campaign job files are all published this
// way, so the crash-safety argument of each is "the rename happened or it
// did not".
//
// A rename is durable only once the directory holding the name has been
// fsynced as well. That is a separate call, SyncDir, because a caller that
// publishes many files into one directory pays for it once, after the last
// rename, and a caller whose next step is only safe after the rename is
// durable (tsdb compaction removes raw data behind a new cold segment) has to
// place it exactly.
package atomicfile

import (
	"bufio"
	"io"
	"os"
)

// Stage names a point of a publication at which Hook runs.
type Stage int

const (
	// BeforeRename: the temporary file is written, synced and closed; the
	// final name still holds the old content.
	BeforeRename Stage = iota
	// AfterRename: the final name holds the new content; the caller has not
	// been told yet.
	AfterRename
	// DirSync: SyncDir was called and is about to fsync the directory.
	DirSync
)

// Hook is the failpoint of the crash tests, nil in production. Write calls
// it with the final path at BeforeRename and AfterRename, SyncDir with the
// directory at DirSync. A non-nil return stops the operation at that point
// and is returned as is, leaving the disk as a process killed there would —
// at BeforeRename that includes the temporary file.
var Hook func(stage Stage, path string) error

func hook(stage Stage, path string) error {
	if h := Hook; h != nil {
		return h(stage, path)
	}
	return nil
}

// Write atomically replaces the file at path with what fill writes. The
// writer handed to fill is buffered. When fill or the file system fails,
// path is untouched and the temporary file (path + ".tmp") is removed; a
// Hook failure leaves what Hook's comment says.
func Write(path string, fill func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = fill(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := hook(BeforeRename, path); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return hook(AfterRename, path)
}

// SyncDir fsyncs the directory dir, making every rename into it (and every
// removal from it) that has already returned survive a power failure.
func SyncDir(dir string) error {
	if err := hook(DirSync, dir); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
