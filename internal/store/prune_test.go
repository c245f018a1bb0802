package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// putAged writes an entry and pins its mtime, so prune-order tests do not
// depend on filesystem timestamp resolution.
func putAged(t *testing.T, s *Store, name string, age time.Time) (path string, size int64) {
	t.Helper()
	key := Key{Space: "abc123", Name: name}
	if err := s.Put(key, []byte(fmt.Sprintf(`{"cell":%q,"pad":"0123456789abcdef"}`, name))); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(s.root, key.Space, key.Name+".entry")
	if err := os.Chtimes(path, age, age); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, info.Size()
}

func TestPruneEvictsOldestFirst(t *testing.T) {
	s := mustOpen(t)
	base := time.Now().Add(-time.Hour)
	var paths []string
	var sizes []int64
	var total int64
	for i := 0; i < 5; i++ {
		p, sz := putAged(t, s, fmt.Sprintf("cell-%d", i), base.Add(time.Duration(i)*time.Minute))
		paths = append(paths, p)
		sizes = append(sizes, sz)
		total += sz
	}

	// A budget that forces exactly the two oldest entries out.
	budget := total - sizes[0] - sizes[1] + 1
	removed, freed, err := s.Prune(budget)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || freed != sizes[0]+sizes[1] {
		t.Fatalf("removed=%d freed=%d, want 2 entries / %d bytes", removed, freed, sizes[0]+sizes[1])
	}
	for i, p := range paths {
		_, err := os.Lstat(p)
		if gone := os.IsNotExist(err); gone != (i < 2) {
			t.Errorf("entry %d: gone=%v (oldest two should be evicted, rest kept)", i, gone)
		}
	}
	if got := s.Stats().Pruned; got != 2 {
		t.Errorf("Pruned counter = %d, want 2", got)
	}

	// Already under budget: nothing to do.
	if removed, freed, err := s.Prune(budget); removed != 0 || freed != 0 || err != nil {
		t.Fatalf("second prune not a no-op: removed=%d freed=%d err=%v", removed, freed, err)
	}
	// Unbounded (<= 0) is a no-op even on an over-full store.
	if removed, _, err := s.Prune(0); removed != 0 || err != nil {
		t.Fatalf("Prune(0) pruned %d entries (err=%v)", removed, err)
	}

	// Surviving entries still serve.
	got, ok, err := s.Get(Key{Space: "abc123", Name: "cell-4"})
	if err != nil || !ok {
		t.Fatalf("survivor unreadable: ok=%v err=%v", ok, err)
	}
	if len(got) == 0 {
		t.Fatal("survivor empty")
	}
}

// Quarantined entries and in-progress temp files are postmortem/writer
// territory: prune must neither count them against the budget nor delete
// them, no matter how old they are.
func TestPruneSparesQuarantineAndTemps(t *testing.T) {
	s := mustOpen(t)
	old := time.Now().Add(-24 * time.Hour)

	qdir := filepath.Join(s.root, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	qfile := filepath.Join(qdir, "broken.entry")
	if err := os.WriteFile(qfile, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(s.root, "abc123", tmpPrefix+"cell-x-999")
	if err := os.MkdirAll(filepath.Dir(tmp), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{qfile, tmp} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	putAged(t, s, "real-cell", time.Now())

	// Budget of one byte: every prunable entry must go — but only entries.
	removed, _, err := s.Prune(1)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed %d, want just the one real entry", removed)
	}
	for _, p := range []string{qfile, tmp} {
		if _, err := os.Lstat(p); err != nil {
			t.Errorf("%s touched by prune: %v", p, err)
		}
	}
}

func TestPruneReadOnlyIsNoOp(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	putAged(t, s1, "cell", time.Now().Add(-time.Hour))
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.ReadOnly() {
		t.Fatal("expected read-only")
	}
	if removed, _, err := s2.Prune(1); removed != 0 || err != nil {
		t.Fatalf("read-only prune acted: removed=%d err=%v", removed, err)
	}
}

// OpenPruned is the commands' way in: it prunes on open and reports what it
// pruned through logf, and says nothing when there is nothing to report.
func TestOpenPrunedLogsPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		putAged(t, s, fmt.Sprintf("cell-%d", i), base.Add(time.Duration(i)*time.Minute))
	}
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	if _, err := OpenPruned(dir, 0, logf); err != nil || len(log) != 0 {
		t.Fatalf("unbounded open: err=%v log=%q", err, log)
	}
	s2, err := OpenPruned(dir, 1, logf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Pruned != 3 || len(log) != 1 ||
		!strings.HasPrefix(log[0], "store pruned 3 entries") {
		t.Fatalf("pruned=%d log=%q", s2.Stats().Pruned, log)
	}
}
