package core

import (
	"reflect"
	"strconv"
	"testing"
)

// TestCutMemoBound: every active tree over one navigation tree shares its
// memo; storing a new key into a full memo clears it first and counts the
// dropped entries as evictions, while overwriting a held key never clears;
// and the memo keeps its own copy of a stored cut.
func TestCutMemoBound(t *testing.T) {
	f := newPaperFixture(t)
	other := NewActiveTree(f.nav)
	cut := []Edge{f.edge(t, "phys")}
	key := func(i int) MemoKey { return MemoKey{policy: StaticAll{}, comp: strconv.Itoa(i)} }

	for i := 0; i < cutMemoBound; i++ {
		f.at.Memoize(key(i), cut)
	}
	ev0 := memoEvictions.Value()
	f.at.Memoize(key(0), cut)
	if got, ok := other.MemoCut(key(cutMemoBound - 1)); !ok || !reflect.DeepEqual(got, cut) {
		t.Fatalf("a second active tree over the navigation tree reads %v, %v from the memo", got, ok)
	}
	if memoEvictions.Value() != ev0 {
		t.Fatal("overwriting a held key cleared the memo")
	}

	want := []Edge{f.edge(t, "gen")}
	stored := append([]Edge(nil), want...)
	other.Memoize(key(cutMemoBound), stored)
	stored[0] = Edge{}
	if got := memoEvictions.Value() - ev0; got != cutMemoBound {
		t.Fatalf("storing into a full memo evicted %d entries, want %d", got, cutMemoBound)
	}
	if _, ok := f.at.MemoCut(key(0)); ok {
		t.Fatal("a full memo kept its old entries")
	}
	if got, ok := f.at.MemoCut(key(cutMemoBound)); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("the memo holds %v, %v for the new key; want its own copy of %v", got, ok, want)
	}
}
