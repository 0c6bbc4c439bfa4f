package hierarchy

import (
	"strings"
	"testing"
)

// FuzzParseMeSHASCII: arbitrary descriptor files must parse into a valid
// tree or error — never panic.
func FuzzParseMeSHASCII(f *testing.F) {
	f.Add(sampleMeSH)
	f.Add("*NEWRECORD\nMH = X\nMN = A01\n")
	f.Add("*NEWRECORD\nMN = A01.047\nMH = Y\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ParseMeSHASCII(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("parsed tree invalid: %v", err)
		}
	})
}
