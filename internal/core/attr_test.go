package core

import (
	"fmt"
	"sync"
	"testing"
)

func TestAttrZero(t *testing.T) {
	var z Attr
	if z != (Attr{}) || z.Rel() != "" || z.Name() != "" || z.String() != "." {
		t.Errorf("zero Attr reads %q %q %q", z.Rel(), z.Name(), z)
	}
	if A("", "") != z {
		t.Error(`A("", "") is not the zero Attr: two attributes would render alike and compare unequal`)
	}
	for _, a := range []Attr{A("", "a"), A("R", ""), A("R", "a")} {
		if a == z {
			t.Errorf("%v equals the zero Attr", a)
		}
	}
	if (Attrs{z}).Hash() != 0x66^(hashString("")*31^hashString("")) {
		t.Error("the zero Attr does not hash as a pair of empty names")
	}
}

func TestAttrInterning(t *testing.T) {
	a := A("R1", "a")
	if b := A("R1", "a"); a != b {
		t.Errorf("A is not idempotent: %v != %v", a, b)
	}
	if a.Rel() != "R1" || a.Name() != "a" || a.String() != "R1.a" {
		t.Errorf("reads back %q %q %q", a.Rel(), a.Name(), a)
	}
	if a == A("R1", "b") || a == A("R2", "a") || A("R1a", "") == A("R1", "a") {
		t.Error("distinct names share a symbol")
	}
	if got, err := Intern("R1", "a"); err != nil || got != a {
		t.Errorf("Intern of a known name = %v, %v", got, err)
	}
	if _, err := Intern(string(make([]byte, maxAttrName)), "x"); err == nil {
		t.Error("Intern accepted an overlong name")
	}
	if A("R2", "a").Compare(A("R10", "a")) <= 0 || A("R1", "b").Compare(A("R1", "a")) <= 0 || a.Compare(a) != 0 {
		t.Error("Compare does not order by (Rel, Name)")
	}
}

// TestAttrTableConcurrent interns overlapping names from eight goroutines
// while eight others read names and hashes of symbols already handed out;
// run under -race it checks the table's contract: inserts serialized,
// reads lock-free against an immutable snapshot.
func TestAttrTableConcurrent(t *testing.T) {
	const names = 600 // past several doublings of the table's backing array
	seed := Attrs{A("seed", "a"), A("seed", "b")}
	want := seed.Hash()
	handed := make(chan Attr, 8*names)
	var writers, readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < names; i++ {
				// Neighbouring goroutines overlap on half their names.
				rel, name := fmt.Sprintf("conc%d", (g/2*names+i)%(3*names)), fmt.Sprint(i%7)
				a := A(rel, name)
				if a.Rel() != rel || a.Name() != name {
					t.Errorf("A(%q, %q) reads back %v", rel, name, a)
				}
				handed <- a
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for a := range handed {
				if got := A(a.Rel(), a.Name()); got != a {
					t.Errorf("%v re-interned as another symbol", a)
				}
				if (Attrs{a}).Hash() != 0x66^(hashString(a.Rel())*31^hashString(a.Name())) {
					t.Errorf("%v: stored hashes disagree with its names", a)
				}
				if seed.Hash() != want {
					t.Error("an earlier symbol's hash moved")
				}
			}
		}()
	}
	writers.Wait()
	close(handed)
	readers.Wait()
}
