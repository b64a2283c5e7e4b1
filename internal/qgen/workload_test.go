package qgen

import "testing"

func TestZipfDrawsDeterministic(t *testing.T) {
	a := ZipfDraws(12, 300, 1.3, 42)
	b := ZipfDraws(12, 300, 1.3, 42)
	if len(a) != 300 {
		t.Fatalf("len = %d, want 300", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical calls: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 12 {
			t.Fatalf("draw %d out of range: %d", i, a[i])
		}
	}
	c := ZipfDraws(12, 300, 1.3, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

func TestZipfDrawsSkew(t *testing.T) {
	draws := ZipfDraws(12, 1000, 1.3, 7)
	counts := make([]int, 12)
	for _, d := range draws {
		counts[d]++
	}
	for i := 1; i < 12; i++ {
		if counts[0] < counts[i] {
			t.Fatalf("index 0 (%d draws) not the hottest; index %d has %d",
				counts[0], i, counts[i])
		}
	}
}

func TestZipfDrawsDegenerate(t *testing.T) {
	if ZipfDraws(0, 10, 1.3, 1) != nil || ZipfDraws(10, 0, 1.3, 1) != nil {
		t.Error("degenerate sizes should return nil")
	}
	one := ZipfDraws(1, 5, 1.3, 1)
	for _, d := range one {
		if d != 0 {
			t.Fatal("pool of one must always draw index 0")
		}
	}
}
