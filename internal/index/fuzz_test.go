package index

import (
	"testing"

	"bionav/internal/corpus"
)

// FuzzParseQuery: arbitrary query strings must parse or error — never
// panic — and parsed queries must evaluate without panicking with results
// drawn from the indexed universe.
func FuzzParseQuery(f *testing.F) {
	f.Add("prothymosin AND (cancer OR apoptosis) NOT review")
	f.Add("((((")
	f.Add("AND OR NOT")
	f.Add("a b c")
	f.Add("Na+/I- symporter")
	ix := BuildFromDocs(map[corpus.CitationID][]string{
		1: {"prothymosin", "cancer"},
		2: {"apoptosis", "review"},
	})
	f.Fuzz(func(t *testing.T, q string) {
		e, err := ParseQuery(q)
		if err != nil {
			return
		}
		for _, id := range ix.SearchExpr(e) {
			if id != 1 && id != 2 {
				t.Fatalf("query %q returned foreign id %d", q, id)
			}
		}
	})
}
