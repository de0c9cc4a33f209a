package experiments

import "testing"

func TestSFLLLeakCount(t *testing.T) {
	// 2·C(8,2) = 56, 2·C(8,0) = 2, 2·C(6,3) = 40.
	for _, c := range []struct {
		n, h int
		want uint64
	}{
		{8, 2, 56}, {8, 0, 2}, {6, 3, 40}, {8, 9, 0}, {8, -1, 0},
	} {
		if got := SFLLLeakCount(c.n, c.h); got != c.want {
			t.Errorf("SFLLLeakCount(%d,%d) = %d, want %d", c.n, c.h, got, c.want)
		}
	}
}

// TestLeakSFLLH carries out the paper's future-work extension: the
// secret Hamming-distance parameter of SFLL-HD leaks from a single
// DIP-set count.
func TestLeakSFLLH(t *testing.T) {
	for _, c := range []struct{ hostInputs, n, h int }{
		{10, 8, 0}, {10, 8, 1}, {10, 8, 2}, {10, 8, 3}, {12, 10, 2}, {14, 12, 3},
	} {
		res, err := LeakSFLLH(c.hostInputs, c.n, c.h, int64(40+c.h))
		if err != nil {
			t.Fatalf("n=%d h=%d: %v", c.n, c.h, err)
		}
		if res.DIPCount != res.Predicted {
			t.Errorf("n=%d h=%d: measured %d DIPs, closed form %d", c.n, c.h, res.DIPCount, res.Predicted)
		}
		if !res.Success {
			t.Errorf("n=%d h=%d: learned %d", c.n, c.h, res.LearnedH)
		}
	}
}
