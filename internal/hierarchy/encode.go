package hierarchy

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text serialization is line-oriented so datasets diff cleanly:
//
//	bionav-hierarchy v1 <node-count>
//	<parent-id>\t<label>          (one line per node, in ID order)
//
// Tree identifiers are positional and therefore recomputed on decode rather
// than stored. The root's parent is -1.

const encodeHeader = "bionav-hierarchy v1"

// Encode writes t to w in the text format above.
func Encode(w io.Writer, t *Tree) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s %d\n", encodeHeader, t.Len()); err != nil {
		return err
	}
	for i := 0; i < t.Len(); i++ {
		n := t.Node(ConceptID(i))
		if _, err := fmt.Fprintf(bw, "%d\t%s\n", n.Parent, n.Label); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a tree previously written by Encode. Input is validated
// structurally: IDs must be dense, parents must precede children, and
// labels must be unique. A label may not end in a carriage return: line
// splitting strips one before a newline, so Encode could not write it back.
func Decode(r io.Reader) (*Tree, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("hierarchy: missing header: %w", firstErr(sc.Err(), io.ErrUnexpectedEOF))
	}
	header := sc.Text()
	rest, ok := strings.CutPrefix(header, encodeHeader+" ")
	if !ok {
		return nil, fmt.Errorf("hierarchy: bad header %q", header)
	}
	count, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil || count < 1 {
		return nil, fmt.Errorf("hierarchy: bad node count in header %q", header)
	}

	var b *Builder
	for i := 0; i < count; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("hierarchy: truncated at node %d of %d: %w", i, count, firstErr(sc.Err(), io.ErrUnexpectedEOF))
		}
		line := sc.Text()
		parentStr, label, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("hierarchy: node %d: malformed line %q", i, line)
		}
		if strings.HasSuffix(label, "\r") {
			return nil, fmt.Errorf("hierarchy: node %d: label %q ends in a carriage return", i, label)
		}
		parent, err := strconv.Atoi(parentStr)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: node %d: bad parent %q", i, parentStr)
		}
		if i == 0 {
			if parent != int(None) {
				return nil, fmt.Errorf("hierarchy: root has parent %d", parent)
			}
			b = NewBuilder(label)
			continue
		}
		if parent < 0 || parent >= i {
			return nil, fmt.Errorf("hierarchy: node %d: parent %d does not precede it", i, parent)
		}
		b.Add(ConceptID(parent), label)
	}
	t, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
