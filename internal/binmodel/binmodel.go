// Package binmodel implements the SiteModel codec, the
// `ceres.sitemodel/3` format: an explicit field-tagged, varint-framed
// encoding of core.SiteModelState that a cold registry boot decodes at
// memory speed.
//
// Layout (DESIGN.md §10):
//
//	magic[8] | uvarint version | uvarint bodyLen | body
//
// The body is a message: a sequence of (key, value) fields where
// key = uvarint(tag<<3 | wire) and wire is one of varint(0), fixed64(1)
// or bytes(2). Nested messages and packed float slices ride in bytes
// fields. Decoders skip unknown tags by wire type, so a v3 reader stays
// forward-compatible with files that gain fields.
//
// There is no reflection anywhere: every message has a hand-written
// size/append/parse triple, the encoder grows its output buffer exactly
// once, and the framing primitives are //ceres:allocfree so the decode
// hot path is machine-enforced allocation-free apart from the strings
// and slices the decoded state itself owns.
package binmodel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"ceres/internal/core"
	"ceres/internal/mlr"
)

// Version is the format version carried after the magic. Decoders reject
// other versions with ErrUnsupportedVersion.
const Version = 3

// magic identifies a site-model file. The first byte is outside ASCII so
// no text stream can collide with it.
var magic = [8]byte{0xC9, 'C', 'R', 'S', 'M', 'D', 'L', '3'}

// Typed decode errors; test with errors.Is.
var (
	// ErrBadMagic reports input that does not begin with the binary
	// site-model magic.
	ErrBadMagic = errors.New("binmodel: not a binary site model (bad magic)")
	// ErrUnsupportedVersion reports a well-framed file whose format
	// version this decoder does not speak.
	ErrUnsupportedVersion = errors.New("binmodel: unsupported format version")
	// ErrTruncated reports input that ends mid-frame.
	ErrTruncated = errors.New("binmodel: truncated input")
	// ErrCorrupt reports framing that cannot be decoded (bad wire type,
	// impossible length, trailing garbage).
	ErrCorrupt = errors.New("binmodel: corrupt input")
)

// Wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
)

// Field tags. Tags are stable forever; new fields get new tags and old
// decoders skip them.
const (
	// file message
	tagFileThreshold = 1 // fixed64
	tagFileModel     = 2 // bytes: siteModel message

	// siteModel message (core.SiteModelState)
	tagSiteNameThreshold = 1 // fixed64 (Extract.NameThreshold)
	// 2 is reserved: files written before the serving host chose its own
	// parallelism carry the trainer's worker count there; it is skipped.
	tagSiteTrainPages = 3 // varint (zigzag)
	tagSiteCluster    = 4 // bytes, repeated: cluster message

	// cluster message (core.ClusterModelState)
	tagClusterExemplar       = 1 // bytes, repeated
	tagClusterTrained        = 2 // varint bool
	tagClusterPages          = 3 // varint (zigzag)
	tagClusterAnnotatedPages = 4 // varint (zigzag)
	tagClusterAnnotations    = 5 // varint (zigzag)
	tagClusterModel          = 6 // bytes: model message, optional

	// model message (core.ModelState)
	tagModelClass      = 1 // bytes, repeated
	tagModelFeaturizer = 2 // bytes: featurizer message
	tagModelLR         = 3 // bytes: lr message, optional
	tagModelNB         = 4 // bytes: nb message, optional

	// featurizer message (core.FeaturizerState)
	tagFzOpts     = 1 // bytes: featureOpts message
	tagFzDictName = 2 // bytes, repeated
	tagFzFrozen   = 3 // varint bool
	tagFzFrequent = 4 // bytes, repeated

	// featureOpts message (core.FeatureOptions)
	tagFoMaxAncestors      = 1 // varint (zigzag)
	tagFoSiblingWindow     = 2 // varint (zigzag)
	tagFoTextAncestors     = 3 // varint (zigzag)
	tagFoFreqStringMinFrac = 4 // fixed64
	tagFoMaxFreqStringLen  = 5 // varint (zigzag)
	tagFoDisableStructural = 6 // varint bool
	tagFoDisableText       = 7 // varint bool

	// lr message (mlr.Model)
	tagLRNumClasses  = 1 // varint (zigzag)
	tagLRNumFeatures = 2 // varint (zigzag)
	tagLRW           = 3 // bytes: packed fixed64
	tagLRB           = 4 // bytes: packed fixed64

	// nb message (mlr.NaiveBayesState)
	tagNBNumClasses    = 1 // varint (zigzag)
	tagNBNumFeatures   = 2 // varint (zigzag)
	tagNBLogPrior      = 3 // bytes: packed fixed64
	tagNBLogProb       = 4 // bytes: packed fixed64
	tagNBLogAbsent     = 5 // bytes: packed fixed64
	tagNBLogProbAbsent = 6 // bytes: packed fixed64
)

// ------------------------------------------------------------- encoding

// Append encodes threshold and st as one binary site-model file,
// appending to buf (which may be nil) and returning the extended slice.
// The output size is computed up front, so Append grows buf at most once
// and a reused buffer with enough capacity never allocates. Encoding the
// same state twice yields identical bytes.
func Append(buf []byte, threshold float64, st *core.SiteModelState) []byte {
	body := sizeFile(threshold, st)
	need := len(magic) + uvarintLen(Version) + uvarintLen(uint64(body)) + body
	if cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(body))
	return appendFile(buf, threshold, st)
}

// Write encodes threshold and st to w as one binary site-model file.
func Write(w io.Writer, threshold float64, st *core.SiteModelState) (int64, error) {
	n, err := w.Write(Append(nil, threshold, st))
	return int64(n), err
}

func sizeFile(threshold float64, st *core.SiteModelState) int {
	n := fixed64FieldLen(tagFileThreshold, math.Float64bits(threshold))
	n += bytesFieldLen(tagFileModel, sizeSiteModel(st))
	return n
}

func appendFile(buf []byte, threshold float64, st *core.SiteModelState) []byte {
	buf = appendFixed64Field(buf, tagFileThreshold, math.Float64bits(threshold))
	buf = appendKey(buf, tagFileModel, wireBytes)
	buf = binary.AppendUvarint(buf, uint64(sizeSiteModel(st)))
	return appendSiteModel(buf, st)
}

func sizeSiteModel(st *core.SiteModelState) int {
	n := fixed64FieldLen(tagSiteNameThreshold, math.Float64bits(st.Extract.NameThreshold))
	n += intFieldLen(tagSiteTrainPages, st.TrainPages)
	for i := range st.Clusters {
		n += bytesFieldLen(tagSiteCluster, sizeCluster(&st.Clusters[i]))
	}
	return n
}

func appendSiteModel(buf []byte, st *core.SiteModelState) []byte {
	buf = appendFixed64Field(buf, tagSiteNameThreshold, math.Float64bits(st.Extract.NameThreshold))
	buf = appendIntField(buf, tagSiteTrainPages, st.TrainPages)
	for i := range st.Clusters {
		buf = appendKey(buf, tagSiteCluster, wireBytes)
		buf = binary.AppendUvarint(buf, uint64(sizeCluster(&st.Clusters[i])))
		buf = appendCluster(buf, &st.Clusters[i])
	}
	return buf
}

func sizeCluster(cs *core.ClusterModelState) int {
	n := 0
	for _, k := range cs.Exemplar {
		n += bytesFieldLen(tagClusterExemplar, len(k))
	}
	n += boolFieldLen(tagClusterTrained, cs.Trained)
	n += intFieldLen(tagClusterPages, cs.Pages)
	n += intFieldLen(tagClusterAnnotatedPages, cs.AnnotatedPages)
	n += intFieldLen(tagClusterAnnotations, cs.Annotations)
	if cs.Model != nil {
		n += bytesFieldLen(tagClusterModel, sizeModel(cs.Model))
	}
	return n
}

func appendCluster(buf []byte, cs *core.ClusterModelState) []byte {
	for _, k := range cs.Exemplar {
		buf = appendStringField(buf, tagClusterExemplar, k)
	}
	buf = appendBoolField(buf, tagClusterTrained, cs.Trained)
	buf = appendIntField(buf, tagClusterPages, cs.Pages)
	buf = appendIntField(buf, tagClusterAnnotatedPages, cs.AnnotatedPages)
	buf = appendIntField(buf, tagClusterAnnotations, cs.Annotations)
	if cs.Model != nil {
		buf = appendKey(buf, tagClusterModel, wireBytes)
		buf = binary.AppendUvarint(buf, uint64(sizeModel(cs.Model)))
		buf = appendModel(buf, cs.Model)
	}
	return buf
}

func sizeModel(ms *core.ModelState) int {
	n := 0
	for _, c := range ms.Classes {
		n += bytesFieldLen(tagModelClass, len(c))
	}
	n += bytesFieldLen(tagModelFeaturizer, sizeFeaturizer(&ms.Featurizer))
	if ms.LR != nil {
		n += bytesFieldLen(tagModelLR, sizeLR(ms.LR))
	}
	if ms.NB != nil {
		n += bytesFieldLen(tagModelNB, sizeNB(ms.NB))
	}
	return n
}

func appendModel(buf []byte, ms *core.ModelState) []byte {
	for _, c := range ms.Classes {
		buf = appendStringField(buf, tagModelClass, c)
	}
	buf = appendKey(buf, tagModelFeaturizer, wireBytes)
	buf = binary.AppendUvarint(buf, uint64(sizeFeaturizer(&ms.Featurizer)))
	buf = appendFeaturizer(buf, &ms.Featurizer)
	if ms.LR != nil {
		buf = appendKey(buf, tagModelLR, wireBytes)
		buf = binary.AppendUvarint(buf, uint64(sizeLR(ms.LR)))
		buf = appendLR(buf, ms.LR)
	}
	if ms.NB != nil {
		buf = appendKey(buf, tagModelNB, wireBytes)
		buf = binary.AppendUvarint(buf, uint64(sizeNB(ms.NB)))
		buf = appendNB(buf, ms.NB)
	}
	return buf
}

func sizeFeaturizer(fs *core.FeaturizerState) int {
	n := bytesFieldLen(tagFzOpts, sizeFeatureOpts(&fs.Opts))
	for _, name := range fs.Dict.Names {
		n += bytesFieldLen(tagFzDictName, len(name))
	}
	n += boolFieldLen(tagFzFrozen, fs.Dict.Frozen)
	for _, s := range fs.Frequent {
		n += bytesFieldLen(tagFzFrequent, len(s))
	}
	return n
}

func appendFeaturizer(buf []byte, fs *core.FeaturizerState) []byte {
	buf = appendKey(buf, tagFzOpts, wireBytes)
	buf = binary.AppendUvarint(buf, uint64(sizeFeatureOpts(&fs.Opts)))
	buf = appendFeatureOpts(buf, &fs.Opts)
	for _, name := range fs.Dict.Names {
		buf = appendStringField(buf, tagFzDictName, name)
	}
	buf = appendBoolField(buf, tagFzFrozen, fs.Dict.Frozen)
	for _, s := range fs.Frequent {
		buf = appendStringField(buf, tagFzFrequent, s)
	}
	return buf
}

func sizeFeatureOpts(fo *core.FeatureOptions) int {
	n := intFieldLen(tagFoMaxAncestors, fo.MaxAncestors)
	n += intFieldLen(tagFoSiblingWindow, fo.SiblingWindow)
	n += intFieldLen(tagFoTextAncestors, fo.TextAncestors)
	n += fixed64FieldLen(tagFoFreqStringMinFrac, math.Float64bits(fo.FrequentStringMinFrac))
	n += intFieldLen(tagFoMaxFreqStringLen, fo.MaxFrequentStringLen)
	n += boolFieldLen(tagFoDisableStructural, fo.DisableStructural)
	n += boolFieldLen(tagFoDisableText, fo.DisableText)
	return n
}

func appendFeatureOpts(buf []byte, fo *core.FeatureOptions) []byte {
	buf = appendIntField(buf, tagFoMaxAncestors, fo.MaxAncestors)
	buf = appendIntField(buf, tagFoSiblingWindow, fo.SiblingWindow)
	buf = appendIntField(buf, tagFoTextAncestors, fo.TextAncestors)
	buf = appendFixed64Field(buf, tagFoFreqStringMinFrac, math.Float64bits(fo.FrequentStringMinFrac))
	buf = appendIntField(buf, tagFoMaxFreqStringLen, fo.MaxFrequentStringLen)
	buf = appendBoolField(buf, tagFoDisableStructural, fo.DisableStructural)
	buf = appendBoolField(buf, tagFoDisableText, fo.DisableText)
	return buf
}

func sizeLR(m *mlr.Model) int {
	n := intFieldLen(tagLRNumClasses, m.NumClasses)
	n += intFieldLen(tagLRNumFeatures, m.NumFeatures)
	n += floatsFieldLen(tagLRW, m.W)
	n += floatsFieldLen(tagLRB, m.B)
	return n
}

func appendLR(buf []byte, m *mlr.Model) []byte {
	buf = appendIntField(buf, tagLRNumClasses, m.NumClasses)
	buf = appendIntField(buf, tagLRNumFeatures, m.NumFeatures)
	buf = appendFloatsField(buf, tagLRW, m.W)
	buf = appendFloatsField(buf, tagLRB, m.B)
	return buf
}

func sizeNB(nb *mlr.NaiveBayesState) int {
	n := intFieldLen(tagNBNumClasses, nb.NumClasses)
	n += intFieldLen(tagNBNumFeatures, nb.NumFeatures)
	n += floatsFieldLen(tagNBLogPrior, nb.LogPrior)
	n += floatsFieldLen(tagNBLogProb, nb.LogProb)
	n += floatsFieldLen(tagNBLogAbsent, nb.LogAbsent)
	n += floatsFieldLen(tagNBLogProbAbsent, nb.LogProbAbsent)
	return n
}

func appendNB(buf []byte, nb *mlr.NaiveBayesState) []byte {
	buf = appendIntField(buf, tagNBNumClasses, nb.NumClasses)
	buf = appendIntField(buf, tagNBNumFeatures, nb.NumFeatures)
	buf = appendFloatsField(buf, tagNBLogPrior, nb.LogPrior)
	buf = appendFloatsField(buf, tagNBLogProb, nb.LogProb)
	buf = appendFloatsField(buf, tagNBLogAbsent, nb.LogAbsent)
	buf = appendFloatsField(buf, tagNBLogProbAbsent, nb.LogProbAbsent)
	return buf
}

// --------------------------------------------------- field-level codecs
//
// Scalar zero values (0, false, 0.0) are omitted on encode and restored
// as zero on decode, so the encoding of a state is canonical: equal
// states encode to equal bytes. Repeated fields always encode every
// element — an empty string element still frames, only its absence would
// change the count.

func zigzag(v int) uint64   { return uint64((int64(v) << 1) ^ (int64(v) >> 63)) }
func unzigzag(u uint64) int { return int(int64(u>>1) ^ -int64(u&1)) }

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func keyLen(tag int) int { return uvarintLen(uint64(tag) << 3) }

func appendKey(buf []byte, tag, wire int) []byte {
	return binary.AppendUvarint(buf, uint64(tag)<<3|uint64(wire))
}

func intFieldLen(tag, v int) int {
	if v == 0 {
		return 0
	}
	return keyLen(tag) + uvarintLen(zigzag(v))
}

func appendIntField(buf []byte, tag, v int) []byte {
	if v == 0 {
		return buf
	}
	buf = appendKey(buf, tag, wireVarint)
	return binary.AppendUvarint(buf, zigzag(v))
}

func boolFieldLen(tag int, v bool) int {
	if !v {
		return 0
	}
	return keyLen(tag) + 1
}

func appendBoolField(buf []byte, tag int, v bool) []byte {
	if !v {
		return buf
	}
	buf = appendKey(buf, tag, wireVarint)
	return append(buf, 1)
}

func fixed64FieldLen(tag int, bits uint64) int {
	if bits == 0 {
		return 0
	}
	return keyLen(tag) + 8
}

func appendFixed64Field(buf []byte, tag int, bits uint64) []byte {
	if bits == 0 {
		return buf
	}
	buf = appendKey(buf, tag, wireFixed64)
	return binary.LittleEndian.AppendUint64(buf, bits)
}

func bytesFieldLen(tag, n int) int {
	return keyLen(tag) + uvarintLen(uint64(n)) + n
}

func appendStringField(buf []byte, tag int, s string) []byte {
	buf = appendKey(buf, tag, wireBytes)
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func floatsFieldLen(tag int, fs []float64) int {
	if len(fs) == 0 {
		return 0
	}
	return bytesFieldLen(tag, 8*len(fs))
}

func appendFloatsField(buf []byte, tag int, fs []float64) []byte {
	if len(fs) == 0 {
		return buf
	}
	buf = appendKey(buf, tag, wireBytes)
	buf = binary.AppendUvarint(buf, uint64(8*len(fs)))
	for _, f := range fs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

// ------------------------------------------------------------- decoding

// Decode parses one binary site-model file produced by Append/Write. It
// returns the stored threshold and model state, or a typed error:
// ErrBadMagic for input that is not a binary site model, ErrTruncated
// for input cut short, ErrCorrupt for unreadable framing, and
// ErrUnsupportedVersion for a future format.
func Decode(data []byte) (float64, *core.SiteModelState, error) {
	if !bytes.HasPrefix(data, magic[:]) {
		if len(data) > 0 && bytes.HasPrefix(magic[:], data) {
			return 0, nil, fmt.Errorf("%w: %d-byte input shorter than the magic", ErrTruncated, len(data))
		}
		return 0, nil, ErrBadMagic
	}
	b := data[len(magic):]
	version, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, frameErr(n)
	}
	b = b[n:]
	if version != Version {
		return 0, nil, fmt.Errorf("%w: %d (decoder speaks %d)", ErrUnsupportedVersion, version, Version)
	}
	bodyLen, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, frameErr(n)
	}
	b = b[n:]
	if uint64(len(b)) < bodyLen {
		return 0, nil, fmt.Errorf("%w: body declares %d bytes, %d remain", ErrTruncated, bodyLen, len(b))
	}
	if uint64(len(b)) > bodyLen {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes after body", ErrCorrupt, uint64(len(b))-bodyLen)
	}
	return parseFile(b)
}

// frameErr maps a binary.Uvarint failure to the right sentinel: 0 means
// the buffer ran out (truncated), negative means overflow (corrupt).
func frameErr(n int) error {
	if n == 0 {
		return fmt.Errorf("%w: varint cut short", ErrTruncated)
	}
	return fmt.Errorf("%w: varint overflow", ErrCorrupt)
}

// fieldKey parses the next field key at off, returning the tag, wire
// type and the number of bytes consumed (0 on truncation, negative on
// overflow, mirroring binary.Uvarint).
//
//ceres:allocfree
func fieldKey(b []byte, off int) (tag, wire, n int) {
	key, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, 0, n
	}
	return int(key >> 3), int(key & 7), n
}

// readBytesField parses a bytes field's payload bounds at off, returning
// the half-open range [lo, hi) and ok. It never allocates; callers slice
// or copy as the field type demands.
//
//ceres:allocfree
func readBytesField(b []byte, off int) (lo, hi int, ok bool) {
	ln, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, 0, false
	}
	lo = off + n
	if ln > uint64(len(b)-lo) {
		return 0, 0, false
	}
	return lo, lo + int(ln), true
}

// readVarintField parses a varint field's value at off, returning the
// value and the offset after it (next == off on failure).
//
//ceres:allocfree
func readVarintField(b []byte, off int) (v uint64, next int, ok bool) {
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, off, false
	}
	return v, off + n, true
}

// readFixed64Field parses a fixed64 field's bits at off.
//
//ceres:allocfree
func readFixed64Field(b []byte, off int) (bits uint64, next int, ok bool) {
	if len(b)-off < 8 {
		return 0, off, false
	}
	return binary.LittleEndian.Uint64(b[off:]), off + 8, true
}

// skipField advances past one field's payload of the given wire type,
// returning the new offset — the forward-compatibility primitive that
// lets a v3 decoder read files with fields it has never heard of.
//
//ceres:allocfree
func skipField(b []byte, off, wire int) (next int, ok bool) {
	switch wire {
	case wireVarint:
		_, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return off, false
		}
		return off + n, true
	case wireFixed64:
		if len(b)-off < 8 {
			return off, false
		}
		return off + 8, true
	case wireBytes:
		_, hi, okB := readBytesField(b, off)
		if !okB {
			return off, false
		}
		return hi, true
	}
	return off, false
}

// fillFloats decodes hi-lo bytes of packed little-endian float64 bits
// into dst, which the caller sized to (hi-lo)/8.
//
//ceres:allocfree
func fillFloats(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func parseFloats(b []byte, lo, hi int) ([]float64, error) {
	if (hi-lo)%8 != 0 {
		return nil, fmt.Errorf("%w: packed float field of %d bytes", ErrCorrupt, hi-lo)
	}
	fs := make([]float64, (hi-lo)/8)
	fillFloats(fs, b[lo:hi])
	return fs, nil
}

// parseFields drives one message's field loop: it frames each field and
// hands (tag, wire, payload offset) to field, which consumes the payload
// with the read* helpers and returns the offset after it (or an error).
// Unknown tags are skipped by wire type when field returns next == off.
func parseFields(b []byte, field func(tag, wire, off int) (next int, err error)) error {
	for off := 0; off < len(b); {
		tag, wire, n := fieldKey(b, off)
		if n <= 0 {
			return frameErr(n)
		}
		off += n
		next, err := field(tag, wire, off)
		if err != nil {
			return err
		}
		if next == off { // unknown tag: skip by wire type
			skipped, ok := skipField(b, off, wire)
			if !ok {
				return fmt.Errorf("%w: cannot skip field %d (wire %d)", ErrTruncated, tag, wire)
			}
			next = skipped
		}
		off = next
	}
	return nil
}

// want guards a known tag's wire type.
func want(tag, wire, expect int) error {
	if wire != expect {
		return fmt.Errorf("%w: field %d has wire type %d, want %d", ErrCorrupt, tag, wire, expect)
	}
	return nil
}

func parseFile(b []byte) (float64, *core.SiteModelState, error) {
	var threshold float64
	var st *core.SiteModelState
	err := parseFields(b, func(tag, wire, off int) (int, error) {
		switch tag {
		case tagFileThreshold:
			if err := want(tag, wire, wireFixed64); err != nil {
				return off, err
			}
			bits, next, ok := readFixed64Field(b, off)
			if !ok {
				return off, fmt.Errorf("%w: threshold", ErrTruncated)
			}
			threshold = math.Float64frombits(bits)
			return next, nil
		case tagFileModel:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: model message", ErrTruncated)
			}
			m, err := parseSiteModel(b[lo:hi])
			if err != nil {
				return off, err
			}
			st = m
			return hi, nil
		}
		return off, nil
	})
	if err != nil {
		return 0, nil, err
	}
	if st == nil {
		return 0, nil, fmt.Errorf("%w: file has no model message", ErrCorrupt)
	}
	return threshold, st, nil
}

func parseSiteModel(b []byte) (*core.SiteModelState, error) {
	st := &core.SiteModelState{}
	err := parseFields(b, func(tag, wire, off int) (int, error) {
		switch tag {
		case tagSiteNameThreshold:
			if err := want(tag, wire, wireFixed64); err != nil {
				return off, err
			}
			bits, next, ok := readFixed64Field(b, off)
			if !ok {
				return off, fmt.Errorf("%w: name threshold", ErrTruncated)
			}
			st.Extract.NameThreshold = math.Float64frombits(bits)
			return next, nil
		case tagSiteTrainPages:
			if err := want(tag, wire, wireVarint); err != nil {
				return off, err
			}
			v, next, ok := readVarintField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: train pages", ErrTruncated)
			}
			st.TrainPages = unzigzag(v)
			return next, nil
		case tagSiteCluster:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: cluster message", ErrTruncated)
			}
			cs, err := parseCluster(b[lo:hi])
			if err != nil {
				return off, fmt.Errorf("cluster %d: %w", len(st.Clusters), err)
			}
			st.Clusters = append(st.Clusters, cs)
			return hi, nil
		}
		return off, nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

func parseCluster(b []byte) (core.ClusterModelState, error) {
	var cs core.ClusterModelState
	err := parseFields(b, func(tag, wire, off int) (int, error) {
		switch tag {
		case tagClusterExemplar:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: exemplar key", ErrTruncated)
			}
			cs.Exemplar = append(cs.Exemplar, string(b[lo:hi]))
			return hi, nil
		case tagClusterTrained:
			if err := want(tag, wire, wireVarint); err != nil {
				return off, err
			}
			v, next, ok := readVarintField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: trained flag", ErrTruncated)
			}
			cs.Trained = v != 0
			return next, nil
		case tagClusterPages, tagClusterAnnotatedPages, tagClusterAnnotations:
			if err := want(tag, wire, wireVarint); err != nil {
				return off, err
			}
			v, next, ok := readVarintField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: cluster field %d", ErrTruncated, tag)
			}
			switch tag {
			case tagClusterPages:
				cs.Pages = unzigzag(v)
			case tagClusterAnnotatedPages:
				cs.AnnotatedPages = unzigzag(v)
			case tagClusterAnnotations:
				cs.Annotations = unzigzag(v)
			}
			return next, nil
		case tagClusterModel:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: model message", ErrTruncated)
			}
			ms, err := parseModel(b[lo:hi])
			if err != nil {
				return off, err
			}
			cs.Model = ms
			return hi, nil
		}
		return off, nil
	})
	return cs, err
}

func parseModel(b []byte) (*core.ModelState, error) {
	ms := &core.ModelState{}
	err := parseFields(b, func(tag, wire, off int) (int, error) {
		switch tag {
		case tagModelClass:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: class name", ErrTruncated)
			}
			ms.Classes = append(ms.Classes, string(b[lo:hi]))
			return hi, nil
		case tagModelFeaturizer:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: featurizer message", ErrTruncated)
			}
			fs, err := parseFeaturizer(b[lo:hi])
			if err != nil {
				return off, err
			}
			ms.Featurizer = fs
			return hi, nil
		case tagModelLR:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: lr message", ErrTruncated)
			}
			lr, err := parseLR(b[lo:hi])
			if err != nil {
				return off, err
			}
			ms.LR = lr
			return hi, nil
		case tagModelNB:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: nb message", ErrTruncated)
			}
			nb, err := parseNB(b[lo:hi])
			if err != nil {
				return off, err
			}
			ms.NB = nb
			return hi, nil
		}
		return off, nil
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// featurizerScratch is the pooled decode-side scratch for
// parseFeaturizer. A featurizer message is dominated by thousands of
// dict-name strings; converting each with string(b[lo:hi]) made registry
// boot pay one allocation per feature name (~500k for a 1000-model
// store). Instead the parse gathers every name and frequent-string
// payload into one reusable byte arena, converts the arena to a string
// once, and hands out substrings — three allocations per featurizer in
// place of one per name. The span slices record (start, end) pairs in
// arena coordinates.
type featurizerScratch struct {
	arena []byte
	names []int32 // dict-name spans, (start, end) pairs
	freq  []int32 // frequent-string spans, (start, end) pairs
}

var featurizerScratchPool = sync.Pool{New: func() any { return new(featurizerScratch) }}

func parseFeaturizer(b []byte) (core.FeaturizerState, error) {
	var fs core.FeaturizerState
	sc := featurizerScratchPool.Get().(*featurizerScratch)
	sc.arena = sc.arena[:0]
	sc.names = sc.names[:0]
	sc.freq = sc.freq[:0]
	defer featurizerScratchPool.Put(sc)
	err := parseFields(b, func(tag, wire, off int) (int, error) {
		switch tag {
		case tagFzOpts:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: feature options", ErrTruncated)
			}
			fo, err := parseFeatureOpts(b[lo:hi])
			if err != nil {
				return off, err
			}
			fs.Opts = fo
			return hi, nil
		case tagFzDictName:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: dict name", ErrTruncated)
			}
			sc.names = append(sc.names, int32(len(sc.arena)))
			sc.arena = append(sc.arena, b[lo:hi]...)
			sc.names = append(sc.names, int32(len(sc.arena)))
			return hi, nil
		case tagFzFrozen:
			if err := want(tag, wire, wireVarint); err != nil {
				return off, err
			}
			v, next, ok := readVarintField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: frozen flag", ErrTruncated)
			}
			fs.Dict.Frozen = v != 0
			return next, nil
		case tagFzFrequent:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: frequent string", ErrTruncated)
			}
			sc.freq = append(sc.freq, int32(len(sc.arena)))
			sc.arena = append(sc.arena, b[lo:hi]...)
			sc.freq = append(sc.freq, int32(len(sc.arena)))
			return hi, nil
		}
		return off, nil
	})
	if err != nil {
		return fs, err
	}
	// One bulk copy owns every string; the substrings alias it. The whole
	// arena is live data (it is exactly the names and frequent strings),
	// so the shared backing pins nothing extra.
	all := string(sc.arena)
	if n := len(sc.names) / 2; n > 0 {
		fs.Dict.Names = make([]string, n)
		for i := range fs.Dict.Names {
			fs.Dict.Names[i] = all[sc.names[2*i]:sc.names[2*i+1]]
		}
	}
	if n := len(sc.freq) / 2; n > 0 {
		fs.Frequent = make([]string, n)
		for i := range fs.Frequent {
			fs.Frequent[i] = all[sc.freq[2*i]:sc.freq[2*i+1]]
		}
	}
	return fs, nil
}

func parseFeatureOpts(b []byte) (core.FeatureOptions, error) {
	var fo core.FeatureOptions
	err := parseFields(b, func(tag, wire, off int) (int, error) {
		switch tag {
		case tagFoMaxAncestors, tagFoSiblingWindow, tagFoTextAncestors, tagFoMaxFreqStringLen:
			if err := want(tag, wire, wireVarint); err != nil {
				return off, err
			}
			v, next, ok := readVarintField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: feature option %d", ErrTruncated, tag)
			}
			switch tag {
			case tagFoMaxAncestors:
				fo.MaxAncestors = unzigzag(v)
			case tagFoSiblingWindow:
				fo.SiblingWindow = unzigzag(v)
			case tagFoTextAncestors:
				fo.TextAncestors = unzigzag(v)
			case tagFoMaxFreqStringLen:
				fo.MaxFrequentStringLen = unzigzag(v)
			}
			return next, nil
		case tagFoFreqStringMinFrac:
			if err := want(tag, wire, wireFixed64); err != nil {
				return off, err
			}
			bits, next, ok := readFixed64Field(b, off)
			if !ok {
				return off, fmt.Errorf("%w: frequent-string fraction", ErrTruncated)
			}
			fo.FrequentStringMinFrac = math.Float64frombits(bits)
			return next, nil
		case tagFoDisableStructural, tagFoDisableText:
			if err := want(tag, wire, wireVarint); err != nil {
				return off, err
			}
			v, next, ok := readVarintField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: feature flag %d", ErrTruncated, tag)
			}
			if tag == tagFoDisableStructural {
				fo.DisableStructural = v != 0
			} else {
				fo.DisableText = v != 0
			}
			return next, nil
		}
		return off, nil
	})
	return fo, err
}

func parseLR(b []byte) (*mlr.Model, error) {
	m := &mlr.Model{}
	err := parseFields(b, func(tag, wire, off int) (int, error) {
		switch tag {
		case tagLRNumClasses, tagLRNumFeatures:
			if err := want(tag, wire, wireVarint); err != nil {
				return off, err
			}
			v, next, ok := readVarintField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: lr field %d", ErrTruncated, tag)
			}
			if tag == tagLRNumClasses {
				m.NumClasses = unzigzag(v)
			} else {
				m.NumFeatures = unzigzag(v)
			}
			return next, nil
		case tagLRW, tagLRB:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: lr weights", ErrTruncated)
			}
			fs, err := parseFloats(b, lo, hi)
			if err != nil {
				return off, err
			}
			if tag == tagLRW {
				m.W = fs
			} else {
				m.B = fs
			}
			return hi, nil
		}
		return off, nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

func parseNB(b []byte) (*mlr.NaiveBayesState, error) {
	nb := &mlr.NaiveBayesState{}
	err := parseFields(b, func(tag, wire, off int) (int, error) {
		switch tag {
		case tagNBNumClasses, tagNBNumFeatures:
			if err := want(tag, wire, wireVarint); err != nil {
				return off, err
			}
			v, next, ok := readVarintField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: nb field %d", ErrTruncated, tag)
			}
			if tag == tagNBNumClasses {
				nb.NumClasses = unzigzag(v)
			} else {
				nb.NumFeatures = unzigzag(v)
			}
			return next, nil
		case tagNBLogPrior, tagNBLogProb, tagNBLogAbsent, tagNBLogProbAbsent:
			if err := want(tag, wire, wireBytes); err != nil {
				return off, err
			}
			lo, hi, ok := readBytesField(b, off)
			if !ok {
				return off, fmt.Errorf("%w: nb table %d", ErrTruncated, tag)
			}
			fs, err := parseFloats(b, lo, hi)
			if err != nil {
				return off, err
			}
			switch tag {
			case tagNBLogPrior:
				nb.LogPrior = fs
			case tagNBLogProb:
				nb.LogProb = fs
			case tagNBLogAbsent:
				nb.LogAbsent = fs
			case tagNBLogProbAbsent:
				nb.LogProbAbsent = fs
			}
			return hi, nil
		}
		return off, nil
	})
	if err != nil {
		return nil, err
	}
	return nb, nil
}
