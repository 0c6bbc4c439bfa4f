package store

import (
	"fmt"

	"bionav/internal/corpus"
	"bionav/internal/faults"
	"bionav/internal/hierarchy"
	"bionav/internal/index"
	"bionav/internal/obs"
)

// Dataset is the older name of Snapshot. servebench still names it; drop
// the alias with the next change to that harness.
type Dataset = Snapshot

// Table names of the BioNav schema.
const (
	tableConcepts  = "concepts"  // one record per concept, in ID order
	tableCitations = "citations" // one record per citation, denormalized
)

// Save writes the snapshot's dataset to a fresh database directory as the
// concepts and citations tables. Neither the epoch nor the keyword index
// is written: LoadDataset reads the dataset back as epoch 0 and builds the
// index from the citations' terms.
func (sn *Snapshot) Save(dir string) error {
	return sn.SaveWith(dir, nil)
}

// SaveWith writes the dataset plus any extra tables produced by extra;
// callers (e.g. the workload package) use it to persist sidecar metadata
// in the same database directory.
func (sn *Snapshot) SaveWith(dir string, extra func(*Writer) error) error {
	w, err := NewWriter(dir)
	if err != nil {
		return err
	}
	err = sn.save(w)
	if err == nil && extra != nil {
		err = extra(w)
	}
	if err != nil {
		w.Close() // release descriptors; the save error wins
		return err
	}
	return w.Close()
}

func (sn *Snapshot) save(w *Writer) error {
	var enc Encoder

	ct, err := w.CreateTable(tableConcepts)
	if err != nil {
		return err
	}
	for i := 0; i < sn.Tree.Len(); i++ {
		n := sn.Tree.Node(hierarchy.ConceptID(i))
		enc.Reset()
		enc.PutVarint(int64(n.Parent))
		enc.PutString(n.Label)
		enc.PutUvarint(uint64(sn.Corpus.GlobalCount(n.ID)))
		if err := ct.Append(enc.Bytes()); err != nil {
			return err
		}
	}

	cit, err := w.CreateTable(tableCitations)
	if err != nil {
		return err
	}
	for i := 0; i < sn.Corpus.Len(); i++ {
		enc.Reset()
		if err := encodeCitation(&enc, sn.Corpus.At(i)); err != nil {
			return err
		}
		if err := cit.Append(enc.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// LoadDataset reads a dataset previously written by Save, as the epoch-0
// snapshot, and indexes its citations with index.Build. Tables it does not
// read are ignored. The faults.SiteStoreLoad failpoint fires before any
// file is opened, so an injected failure exercises the caller's error path
// without touching state.
func LoadDataset(dir string) (sn *Snapshot, err error) {
	defer obs.Time(storeLoadSeconds)()
	defer func() {
		if err != nil {
			storeLoads.With("error").Inc()
		} else {
			storeLoads.With("ok").Inc()
		}
	}()
	if err := faults.Inject(faults.SiteStoreLoad); err != nil {
		return nil, fmt.Errorf("store: load dataset: %w", err)
	}
	db, err := Open(dir)
	if err != nil {
		return nil, err
	}

	// Concepts: rebuild the tree and collect global counts.
	var (
		b       *hierarchy.Builder
		counts  []int64
		nodeNum int
	)
	err = db.ForEach(tableConcepts, func(payload []byte) error {
		d := NewDecoder(payload)
		parent, err := d.Varint()
		if err != nil {
			return err
		}
		label, err := d.String()
		if err != nil {
			return err
		}
		gc, err := d.Uvarint()
		if err != nil {
			return err
		}
		if err := d.Finish(); err != nil {
			return err
		}
		if nodeNum == 0 {
			if parent != int64(hierarchy.None) {
				return fmt.Errorf("%w: first concept is not a root", ErrCorrupt)
			}
			b = hierarchy.NewBuilder(label)
		} else {
			if parent < 0 || parent >= int64(nodeNum) {
				return fmt.Errorf("%w: concept %d has forward parent %d", ErrCorrupt, nodeNum, parent)
			}
			b.Add(hierarchy.ConceptID(parent), label)
		}
		counts = append(counts, int64(gc))
		nodeNum++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("%w: empty concepts table", ErrCorrupt)
	}
	tree, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("store: rebuild hierarchy: %w", err)
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("store: rebuild hierarchy: %w", err)
	}

	// Citations.
	var citations []corpus.Citation
	err = db.ForEach(tableCitations, func(payload []byte) error {
		c, derr := decodeCitation(payload)
		if derr != nil {
			return derr
		}
		citations = append(citations, c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	corp, err := corpus.New(tree, citations, counts)
	if err != nil {
		return nil, fmt.Errorf("store: rebuild corpus: %w", err)
	}
	return &Snapshot{Tree: tree, Corpus: corp, Index: index.Build(corp)}, nil
}
