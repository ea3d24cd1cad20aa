package strmatch

// LevenshteinRunes returns the edit distance (unit-cost insertions,
// deletions and substitutions) between two rune slices, pre-split so that
// one side compared against many others is decoded once. The paper uses
// Levenshtein distance between XPath strings as the metric for its global
// relation-mention clustering (§3.2.2, citing Levenshtein 1966).
func LevenshteinRunes(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// Keep the inner dimension the smaller one to minimize the row buffer.
	if len(rb) > len(ra) {
		ra, rb = rb, ra
	}
	// One row, updated in place: row[j] holds the previous row's value
	// until it is overwritten, and diag carries the one to its left. It
	// lives on the stack unless the shorter side is long.
	var stack [128]int
	var row []int
	if len(rb) < len(stack) {
		row = stack[:len(rb)+1]
	} else {
		row = make([]int, len(rb)+1)
	}
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		diag := row[0] // the previous row's row[j-1]
		row[0] = i
		ai := ra[i-1]
		for j := 1; j <= len(rb); j++ {
			up := row[j]
			cost := 1
			if ai == rb[j-1] {
				cost = 0
			}
			m := diag + cost        // substitution / match
			if d := up + 1; d < m { // deletion
				m = d
			}
			if in := row[j-1] + 1; in < m { // insertion
				m = in
			}
			row[j] = m
			diag = up
		}
	}
	return row[len(rb)]
}

// LevenshteinBounded returns the edit distance between a and b if it is at
// most max, and (max+1, false) otherwise. Early exit makes bulk fuzzy
// matching against a large KB affordable.
func LevenshteinBounded(a, b string, max int) (int, bool) {
	return LevenshteinBoundedRunes([]rune(a), []rune(b), max)
}

// LevenshteinBoundedRunes is LevenshteinBounded over pre-split rune slices,
// for matchers that compare one precomputed text against many candidates.
func LevenshteinBoundedRunes(ra, rb []rune, max int) (int, bool) {
	diff := len(ra) - len(rb)
	if diff < 0 {
		diff = -diff
	}
	if diff > max {
		return max + 1, false
	}
	d := LevenshteinRunes(ra, rb)
	if d > max {
		return max + 1, false
	}
	return d, true
}
