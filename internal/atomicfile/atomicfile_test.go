package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func fillWith(content string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, content)
		return err
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWriteReplaces: a successful Write leaves exactly the new content under
// the final name and no temporary file beside it.
func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, content := range []string{"old", "new and longer"} {
		if err := Write(path, fillWith(content)); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, path); got != content {
			t.Fatalf("content %q, want %q", got, content)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries after two writes, want the file alone", len(ents))
	}
}

// TestWriteFailureKeepsOldContent: when fill fails, or the directory does
// not exist, the error comes back, the old content stays and no temporary
// file is left.
func TestWriteFailureKeepsOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := Write(path, fillWith("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("fill failed")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "half of the new cont")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want the fill error", err)
	}
	if got := readFile(t, path); got != "old" {
		t.Fatalf("content %q after failed write, want the old content", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file after failed write: %v", err)
	}
	if err := Write(filepath.Join(dir, "missing", "f"), fillWith("x")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Write into a missing directory = %v, want ErrNotExist", err)
	}
}

// TestHookStages: the hook sees BeforeRename with the old content still
// published and AfterRename with the new; an error at either stage stops
// Write there and is returned unchanged, leaving the disk as a kill at that
// point would.
func TestHookStages(t *testing.T) {
	defer func() { Hook = nil }()
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := Write(path, fillWith("old")); err != nil {
		t.Fatal(err)
	}

	var stages []Stage
	seen := map[Stage]string{}
	Hook = func(stage Stage, p string) error {
		if p != path {
			t.Errorf("hook path %q, want %q", p, path)
		}
		stages = append(stages, stage)
		seen[stage] = readFile(t, path)
		return nil
	}
	if err := Write(path, fillWith("new")); err != nil {
		t.Fatal(err)
	}
	if want := []Stage{BeforeRename, AfterRename}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("stages %v, want %v", stages, want)
	}
	if seen[BeforeRename] != "old" || seen[AfterRename] != "new" {
		t.Fatalf("published content at the stages: %q, want old before the rename and new after", seen)
	}

	crash := errors.New("injected crash")
	Hook = func(stage Stage, _ string) error {
		if stage == BeforeRename {
			return crash
		}
		return nil
	}
	if err := Write(path, fillWith("lost")); err != crash {
		t.Fatalf("Write = %v, want the hook's error", err)
	}
	if got := readFile(t, path); got != "new" {
		t.Fatalf("content %q after a crash before the rename, want the previous content", got)
	}
	if got := readFile(t, path+".tmp"); got != "lost" {
		t.Fatalf("temporary file holds %q, want the complete unpublished content", got)
	}

	Hook = func(stage Stage, _ string) error {
		if stage == AfterRename {
			return crash
		}
		return nil
	}
	if err := Write(path, fillWith("durable")); err != crash {
		t.Fatalf("Write = %v, want the hook's error", err)
	}
	if got := readFile(t, path); got != "durable" {
		t.Fatalf("content %q after a crash after the rename, want the new content", got)
	}
}

// TestSyncDir: a directory syncs, the hook sees it first and can stop it,
// and a missing directory is an error.
func TestSyncDir(t *testing.T) {
	defer func() { Hook = nil }()
	dir := t.TempDir()
	calls := 0
	Hook = func(stage Stage, p string) error {
		if stage != DirSync || p != dir {
			t.Errorf("hook(%v, %q), want (DirSync, %q)", stage, p, dir)
		}
		calls++
		return nil
	}
	if err := SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("hook ran %d times, want 1", calls)
	}
	crash := errors.New("injected crash")
	Hook = func(Stage, string) error { return crash }
	if err := SyncDir(dir); err != crash {
		t.Fatalf("SyncDir = %v, want the hook's error", err)
	}
	Hook = nil
	if err := SyncDir(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("SyncDir(missing) = %v, want ErrNotExist", err)
	}
}
