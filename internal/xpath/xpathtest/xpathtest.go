// Package xpathtest parses the absolute XPaths a page prints back into
// xpath.Path values, for the tests and tree references that name nodes by
// path. Only tests import it.
package xpathtest

import (
	"fmt"
	"strconv"
	"strings"

	"ceres/internal/xpath"
)

// Parse converts an absolute XPath string (as dom.Node.XPath and
// dom.StreamPage.AppendFieldXPath print it) into a Path. Every step must
// carry an explicit index.
func Parse(s string) (xpath.Path, error) {
	if s == "" || s[0] != '/' {
		return nil, fmt.Errorf("xpath: %q is not absolute", s)
	}
	if s == "/" {
		return xpath.Path{}, nil
	}
	parts := strings.Split(s[1:], "/")
	p := make(xpath.Path, 0, len(parts))
	for _, part := range parts {
		open := strings.IndexByte(part, '[')
		if open <= 0 || !strings.HasSuffix(part, "]") {
			return nil, fmt.Errorf("xpath: malformed step %q in %q", part, s)
		}
		idx, err := strconv.Atoi(part[open+1 : len(part)-1])
		if err != nil || idx < 1 {
			return nil, fmt.Errorf("xpath: bad index in step %q of %q", part, s)
		}
		p = append(p, xpath.Step{Tag: part[:open], Index: idx})
	}
	return p, nil
}

// MustParse is Parse for known-good inputs; it panics on error.
func MustParse(s string) xpath.Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}
