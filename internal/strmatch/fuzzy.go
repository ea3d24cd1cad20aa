package strmatch

// EditBudget returns the edit-distance tolerance of §3.1.1's fuzzy
// matcher for two normalized strings of the given rune lengths. Strings
// shorter than 8 runes must match exactly; longer strings tolerate
// roughly one edit per 8 runes, capped at 3. The kb.Index matcher calls
// this with precomputed lengths.
func EditBudget(la, lb int) int {
	n := la
	if lb < n {
		n = lb
	}
	switch {
	case n < 8:
		return 0
	case n < 16:
		return 1
	case n < 24:
		return 2
	default:
		return 3
	}
}
