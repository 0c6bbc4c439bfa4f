package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"bionav/internal/wal"
)

// A DB is a directory of table files (<name>.tbl), each an internal/wal
// log of records. Writing and reading are separate phases, matching
// BioNav's off-line preprocessing / on-line lookup split: a Writer creates
// tables once; Open then serves them.

const tableSuffix = ".tbl"

var tableNameRE = regexp.MustCompile(`^[a-z][a-z0-9_-]*$`)

// Writer creates a database directory and its tables.
type Writer struct {
	dir    string
	tables map[string]*wal.Writer
}

// NewWriter prepares dir (creating it if needed) for table creation.
// Existing table files in dir are removed so a re-run starts clean.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir: %w", err)
	}
	old, err := filepath.Glob(filepath.Join(dir, "*"+tableSuffix))
	if err != nil {
		return nil, fmt.Errorf("store: glob: %w", err)
	}
	for _, p := range old {
		if err := os.Remove(p); err != nil {
			return nil, fmt.Errorf("store: clean %s: %w", p, err)
		}
	}
	return &Writer{dir: dir, tables: make(map[string]*wal.Writer)}, nil
}

// CreateTable opens a new table for appending. Table names are restricted
// to lowercase identifiers to keep paths portable.
func (w *Writer) CreateTable(name string) (*wal.Writer, error) {
	if !tableNameRE.MatchString(name) {
		return nil, fmt.Errorf("store: invalid table name %q", name)
	}
	if _, dup := w.tables[name]; dup {
		return nil, fmt.Errorf("store: table %q already created", name)
	}
	tw, err := wal.OpenWriter(filepath.Join(w.dir, name+tableSuffix), 0)
	if err != nil {
		return nil, fmt.Errorf("store: create table: %w", err)
	}
	w.tables[name] = tw
	return tw, nil
}

// Close fsyncs and closes every table, reporting the first error.
func (w *Writer) Close() error {
	names := make([]string, 0, len(w.tables))
	for n := range w.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var first error
	for _, n := range names {
		err := w.tables[n].Sync()
		if cerr := w.tables[n].Close(); err == nil {
			err = cerr
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DB is a read-only view of a database directory.
type DB struct {
	dir    string
	tables []string
}

// Open lists the tables present in dir. Record contents are streamed on
// demand by ForEach, not loaded eagerly.
func Open(dir string) (*DB, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open db: %w", err)
	}
	db := &DB{dir: dir}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), tableSuffix) {
			continue
		}
		db.tables = append(db.tables, strings.TrimSuffix(e.Name(), tableSuffix))
	}
	sort.Strings(db.tables)
	return db, nil
}

// HasTable reports whether the named table exists.
func (db *DB) HasTable(name string) bool {
	i := sort.SearchStrings(db.tables, name)
	return i < len(db.tables) && db.tables[i] == name
}

// ForEach streams every record of a table through fn. The payload slice is
// reused; fn must copy data it retains.
func (db *DB) ForEach(table string, fn func(payload []byte) error) error {
	if !db.HasTable(table) {
		return fmt.Errorf("store: no table %q in %s", table, db.dir)
	}
	_, err := readLog(filepath.Join(db.dir, table+tableSuffix), false, fn)
	return err
}

// readLog streams the records of the store log at path through fn and
// applies the store's recovery policy to where the scan stopped.
// Corruption is ErrCorrupt. So is a base table that is torn or has no
// valid magic: Save writes each table once, so a torn one means Save
// never finished, and loading its prefix would serve part of a corpus. On
// the ingest log a torn tail — a crash mid-append — ends the log and is
// counted in bionav_store_torn_tails_total, and a log that is missing, or
// shorter than its magic (a crash right after creating it), holds no
// records. It returns the end of the valid prefix.
func readLog(path string, ingest bool, fn func(payload []byte) error) (int64, error) {
	end, st, err := wal.Scan(path, func(_ int64, payload []byte) error { return fn(payload) })
	switch {
	case ingest && errors.Is(err, fs.ErrNotExist):
		return 0, nil
	case err != nil:
		return 0, err
	case st == wal.Corrupt || (!ingest && (end == 0 || st == wal.Torn)):
		return 0, fmt.Errorf("%w: %s: %v at offset %d", ErrCorrupt, path, st, end)
	case st == wal.Torn && end > 0:
		storeTornTails.Inc()
	}
	return end, nil
}
