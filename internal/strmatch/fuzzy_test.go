package strmatch

import "testing"

func TestEditBudget(t *testing.T) {
	cases := []struct {
		la, lb, want int
	}{
		{0, 0, 0}, {7, 7, 0}, {7, 100, 0},
		{8, 8, 1}, {15, 15, 1}, {8, 30, 1},
		{16, 16, 2}, {23, 23, 2},
		{24, 24, 3}, {100, 24, 3}, {1000, 1000, 3},
	}
	for _, c := range cases {
		if got := EditBudget(c.la, c.lb); got != c.want {
			t.Errorf("EditBudget(%d,%d) = %d, want %d", c.la, c.lb, got, c.want)
		}
	}
}

func TestIsLowInfo(t *testing.T) {
	low := []string{"", "7", "1989", "2017", "a", "!", "USA", "United States", "Denmark", "1994–1998", "  "}
	for _, s := range low {
		if !IsLowInfo(s) {
			t.Errorf("IsLowInfo(%q) = false, want true", s)
		}
	}
	high := []string{"Do the Right Thing", "Spike Lee", "12345", "Pilot", "New York City", "IMDb"}
	for _, s := range high {
		if IsLowInfo(s) {
			t.Errorf("IsLowInfo(%q) = true, want false", s)
		}
	}
}

// IsLowInfo is IsLowInfoNormalized of s's normalized form.
func IsLowInfo(s string) bool {
	return IsLowInfoNormalized(Normalize(s))
}
