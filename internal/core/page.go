// Package core implements the CERES extraction framework itself (paper
// §2–§4): two-step distant-supervision annotation — topic identification
// (Algorithm 1) and relation annotation (Algorithm 2) — followed by
// training a multinomial logistic-regression node classifier over
// DOM-structural and nearby-text features, and extraction of new triples
// with calibrated confidences. The baseline variants the paper compares
// against (CERES-Topic, CERES-Baseline) are modes of the same pipeline.
package core

import (
	"sync"

	"ceres/internal/cluster"
	"ceres/internal/dom"
	"ceres/internal/strmatch"
)

// Field is one candidate text field of a page: the unit of annotation and
// extraction (§2.1).
type Field struct {
	// Text is the collapsed text content.
	Text string
	// PathString is the absolute XPath of the text node
	// (dom.StreamPage.AppendFieldXPath).
	PathString string
	// Norm caches the normalized text KB matching compares.
	Norm string
}

// Page is a page prepared for the pipeline: its bytes and the text
// fields one stream pass found in them. A stage that needs the page's
// structure streams the bytes again (pageStreamer); nothing keeps the
// records between stages.
type Page struct {
	// ID identifies the page within its site.
	ID   string
	HTML string
	// Fields lists the non-empty text fields in document order, the
	// fields of every stream pass over HTML.
	Fields []*Field
}

// PreparePage streams HTML once and copies out its text fields with the
// XPath and the normalized text annotation compares. Training (and
// internal/bench) prepare pages; serving streams its own.
func PreparePage(id, html string) *Page {
	s := streamerPool.Get().(*pageStreamer)
	defer streamerPool.Put(s)
	return s.prepare(id, html)
}

var streamerPool = sync.Pool{New: func() any { return new(pageStreamer) }}

// pageStreamer streams pages on one worker's scratch under fixed options.
// The stream pass reads bytes, so each pass copies the page's HTML into a
// buffer the streamer reuses.
type pageStreamer struct {
	opts dom.StreamOptions
	sc   *dom.StreamScratch
	html []byte
	last *Page // the page sp holds the records of
	sp   *dom.StreamPage
	// prepare and signature's scratch.
	text, norm []byte
	ends       []int
	keys       [][]byte
}

// newStreamers returns one streamer per worker of a par.For over workers.
func newStreamers(workers int, opts dom.StreamOptions) []pageStreamer {
	s := make([]pageStreamer, max(workers, 1))
	for i := range s {
		s[i].opts = opts
	}
	return s
}

// featureStreamOptions are the options the feature walk reads a page
// under: the structural attributes, and element text up to the longest
// string the lexicon may hold.
func featureStreamOptions(opts FeatureOptions) dom.StreamOptions {
	return dom.StreamOptions{MaxText: max(opts.MaxFrequentStringLen, 0), Attrs: structuralAttrs[:]}
}

// stream returns p's records, streaming p unless it was the last page.
func (s *pageStreamer) stream(p *Page) *dom.StreamPage {
	if p != s.last {
		if s.sc == nil {
			s.sc = dom.NewStreamScratch()
		}
		s.html = append(s.html[:0], p.HTML...)
		s.sp, s.last = s.sc.Stream(s.html, s.opts), p
	}
	return s.sp
}

// prepare streams html and copies its fields out: their texts and XPaths
// into one string, their normalized texts into another.
func (s *pageStreamer) prepare(id, html string) *Page {
	p := &Page{ID: id, HTML: html}
	sp := s.stream(p)
	n := sp.Fields()
	// ends holds where each field's text, XPath and normalized text end.
	s.text, s.norm, s.ends = s.text[:0], s.norm[:0], s.ends[:0]
	for i := 0; i < n; i++ {
		s.text = append(s.text, sp.FieldText(i)...)
		textEnd := len(s.text)
		s.text = sp.AppendFieldXPath(s.text, i)
		s.ends = append(s.ends, textEnd, len(s.text), 0)
	}
	text := string(s.text)
	fields := make([]Field, n)
	for i, start := 0, 0; i < n; i++ {
		e := s.ends[3*i : 3*i+3]
		s.norm = strmatch.NormalizeInto(s.norm, text[start:e[0]])
		fields[i].Text, fields[i].PathString, e[2] = text[start:e[0]], text[e[0]:e[1]], len(s.norm)
		start = e[1]
	}
	norm := string(s.norm)
	p.Fields = make([]*Field, n)
	for i, start := 0, 0; i < n; i++ {
		fields[i].Norm, start = norm[start:s.ends[3*i+2]], s.ends[3*i+2]
		p.Fields[i] = &fields[i]
	}
	s.last = nil // a pooled streamer must not pin the page
	return p
}

// signature returns p's clustering signature; s must stream with
// Signature set and "class" among its Attrs.
func (s *pageStreamer) signature(p *Page) cluster.PageSignature {
	s.keys = s.stream(p).AppendSignature(s.keys[:0])
	sig := make(cluster.PageSignature, len(s.keys))
	for _, k := range s.keys {
		sig[string(k)] = true
	}
	return sig
}
