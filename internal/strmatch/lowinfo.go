package strmatch

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// countryNames holds normalized names of countries and other geographic
// catch-alls that the paper's topic-identification step discards as
// low-information topic candidates (§3.1.1: "we discard strings with low
// information content, such as single digit numbers, years, and names of
// countries"). The list covers the film-producing countries featured in the
// CommonCrawl experiment plus common English site boilerplate geography.
var countryNames = map[string]bool{
	"usa": true, "united states": true, "united states of america": true,
	"uk": true, "united kingdom": true, "england": true, "scotland": true,
	"france": true, "germany": true, "italy": true, "spain": true,
	"india": true, "china": true, "japan": true, "south korea": true,
	"korea": true, "nigeria": true, "canada": true, "australia": true,
	"denmark": true, "iceland": true, "czech republic": true, "czechia": true,
	"slovakia": true, "indonesia": true, "hong kong": true, "brazil": true,
	"mexico": true, "russia": true, "ireland": true, "sweden": true,
	"norway": true, "netherlands": true, "belgium": true, "austria": true,
	"switzerland": true, "poland": true, "south africa": true, "egypt": true,
	"turkey": true, "argentina": true, "new zealand": true, "taiwan": true,
	"thailand": true, "philippines": true, "pakistan": true, "iran": true,
}

// IsLowInfoNormalized reports whether the already-normalized string n
// carries too little information to serve as a topic candidate or
// annotation object: empty, a bare number of up to four digits (which
// covers single digits and years), a plausible year range like
// "1990 2000", a single character, or a country name. It does not
// allocate.
func IsLowInfoNormalized(n string) bool {
	if n == "" {
		return true
	}
	if utf8.RuneCountInString(n) == 1 {
		return true
	}
	if isShortNumber(n) {
		return true
	}
	if countryNames[n] {
		return true
	}
	// "1994 1998"-style ranges (normalized form of "1994–1998"): exactly
	// two tokens, both short numbers.
	if i := strings.IndexByte(n, ' '); i >= 0 && strings.IndexByte(n[i+1:], ' ') < 0 {
		if isShortNumber(n[:i]) && isShortNumber(n[i+1:]) {
			return true
		}
	}
	return false
}

func isShortNumber(s string) bool {
	if len(s) == 0 || len(s) > 4 {
		return false
	}
	_, err := strconv.Atoi(s)
	return err == nil
}
