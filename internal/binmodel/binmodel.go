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
// There is no reflection anywhere. Each message lists its fields once in
// an append function and once in a parse function. The encoder back-fills
// every length prefix after writing what it frames; the decoder walks
// each message with one field cursor, which owns framing, wire-type
// checks and error classes. The framing primitives are //ceres:allocfree,
// so the decode hot path is machine-enforced allocation-free apart from
// the strings and slices the decoded state itself owns.
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
	tagModelLR         = 3 // bytes: lr message
	// 4 is reserved: files written while the naive-Bayes ablation could be
	// saved carry its classifier there; it is skipped, so such a file has
	// no classifier and fails to load.

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
)

// ------------------------------------------------------------- encoding

// Append encodes threshold and st as one binary site-model file,
// appending to buf (which may be nil) and returning the extended slice.
// Every length prefix is back-filled once what it frames is written, and
// the buffer never holds more than the finished encoding, so a reused
// buffer that held an encoding of the same state never allocates.
// Encoding the same state twice yields identical bytes.
func Append(buf []byte, threshold float64, st *core.SiteModelState) []byte {
	body, at := openLen(binary.AppendUvarint(append(buf, magic[:]...), Version))
	return closeLen(appendFile(body, threshold, st), at)
}

// Write encodes threshold and st to w as one binary site-model file.
func Write(w io.Writer, threshold float64, st *core.SiteModelState) (int64, error) {
	n, err := w.Write(Append(nil, threshold, st))
	return int64(n), err
}

// openLen appends a one-byte length placeholder and returns its offset,
// for closeLen to fill in.
func openLen(buf []byte) ([]byte, int) {
	return append(buf, 0), len(buf)
}

// closeLen writes, at the placeholder openLen left at offset at, the
// uvarint length of everything appended since. A length of 128 or more
// needs a wider varint, so the payload first shifts right to make room.
func closeLen(buf []byte, at int) []byte {
	n := len(buf) - at - 1
	if n < 0x80 {
		buf[at] = byte(n)
		return buf
	}
	var l [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(l[:], uint64(n))
	buf = append(buf, l[1:w]...)
	copy(buf[at+w:], buf[at+1:at+1+n])
	copy(buf[at:], l[:w])
	return buf
}

func appendFile(buf []byte, threshold float64, st *core.SiteModelState) []byte {
	buf = appendFixed64Field(buf, tagFileThreshold, math.Float64bits(threshold))
	msg, at := openLen(appendKey(buf, tagFileModel, wireBytes))
	return closeLen(appendSiteModel(msg, st), at)
}

func appendSiteModel(buf []byte, st *core.SiteModelState) []byte {
	buf = appendFixed64Field(buf, tagSiteNameThreshold, math.Float64bits(st.Extract.NameThreshold))
	buf = appendIntField(buf, tagSiteTrainPages, st.TrainPages)
	for i := range st.Clusters {
		msg, at := openLen(appendKey(buf, tagSiteCluster, wireBytes))
		buf = closeLen(appendCluster(msg, &st.Clusters[i]), at)
	}
	return buf
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
		msg, at := openLen(appendKey(buf, tagClusterModel, wireBytes))
		buf = closeLen(appendModel(msg, cs.Model), at)
	}
	return buf
}

func appendModel(buf []byte, ms *core.ModelState) []byte {
	for _, c := range ms.Classes {
		buf = appendStringField(buf, tagModelClass, c)
	}
	msg, at := openLen(appendKey(buf, tagModelFeaturizer, wireBytes))
	buf = closeLen(appendFeaturizer(msg, &ms.Featurizer), at)
	if m := ms.LR; m != nil {
		msg, at := openLen(appendKey(buf, tagModelLR, wireBytes))
		msg = appendIntField(msg, tagLRNumClasses, m.NumClasses)
		msg = appendIntField(msg, tagLRNumFeatures, m.NumFeatures)
		msg = appendFloatsField(msg, tagLRW, m.W)
		msg = appendFloatsField(msg, tagLRB, m.B)
		buf = closeLen(msg, at)
	}
	return buf
}

func appendFeaturizer(buf []byte, fs *core.FeaturizerState) []byte {
	fo := &fs.Opts
	msg, at := openLen(appendKey(buf, tagFzOpts, wireBytes))
	msg = appendIntField(msg, tagFoMaxAncestors, fo.MaxAncestors)
	msg = appendIntField(msg, tagFoSiblingWindow, fo.SiblingWindow)
	msg = appendIntField(msg, tagFoTextAncestors, fo.TextAncestors)
	msg = appendFixed64Field(msg, tagFoFreqStringMinFrac, math.Float64bits(fo.FrequentStringMinFrac))
	msg = appendIntField(msg, tagFoMaxFreqStringLen, fo.MaxFrequentStringLen)
	msg = appendBoolField(msg, tagFoDisableStructural, fo.DisableStructural)
	msg = appendBoolField(msg, tagFoDisableText, fo.DisableText)
	buf = closeLen(msg, at)
	for _, name := range fs.Names {
		buf = appendStringField(buf, tagFzDictName, name)
	}
	buf = appendBoolField(buf, tagFzFrozen, fs.Frozen)
	for _, s := range fs.Frequent {
		buf = appendStringField(buf, tagFzFrequent, s)
	}
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

func appendKey(buf []byte, tag, wire int) []byte {
	return binary.AppendUvarint(buf, uint64(tag)<<3|uint64(wire))
}

func appendIntField(buf []byte, tag, v int) []byte {
	if v == 0 {
		return buf
	}
	buf = appendKey(buf, tag, wireVarint)
	return binary.AppendUvarint(buf, zigzag(v))
}

func appendBoolField(buf []byte, tag int, v bool) []byte {
	if !v {
		return buf
	}
	buf = appendKey(buf, tag, wireVarint)
	return append(buf, 1)
}

func appendFixed64Field(buf []byte, tag int, bits uint64) []byte {
	if bits == 0 {
		return buf
	}
	buf = appendKey(buf, tag, wireFixed64)
	return binary.LittleEndian.AppendUint64(buf, bits)
}

func appendStringField(buf []byte, tag int, s string) []byte {
	buf = appendKey(buf, tag, wireBytes)
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
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

// wireNone is the wire type of a cursor that has failed: no accessor
// accepts it, so every read after the first error returns a zero value.
const wireNone = -1

// fields is the cursor over one message's fields. next frames the next
// field and skips the previous one by its wire type if no accessor read
// it, which is how unknown and reserved tags pass. The typed accessors
// check the wire type and read the payload; enter and leave narrow the
// cursor to a nested message and back. The first error sticks: after it
// next returns false and the accessors return zero values.
type fields struct {
	b         []byte
	off       int // start of the current field's payload, or past it once read
	tag, wire int // the current field
	unread    bool
	err       error
}

func (f *fields) next() bool {
	if f.err != nil {
		return false
	}
	if f.unread {
		off, ok := skipField(f.b, f.off, f.wire)
		if !ok {
			f.fail(f.wire)
			return false
		}
		f.off, f.unread = off, false
	}
	if f.off >= len(f.b) {
		return false
	}
	tag, wire, n := fieldKey(f.b, f.off)
	if n <= 0 {
		f.err, f.wire = frameErr(n), wireNone
		return false
	}
	f.off += n
	f.tag, f.wire, f.unread = tag, wire, true
	if wire > wireBytes {
		f.fail(wire)
		return false
	}
	return true
}

// fail records why the current field, wanted as wire type want, could
// not be read: a wire type that is unknown or not the wanted one, or a
// varint that overflows, is ErrCorrupt; anything else ran out of input,
// ErrTruncated. Besides a key that does not frame and an odd packed-float
// length, it is the cursor's one error path, kept out of line so the
// accessors' fast paths stay small.
func (f *fields) fail(want int) {
	if f.err == nil {
		_, n := binary.Uvarint(f.b[f.off:])
		switch {
		case f.wire > wireBytes:
			f.err = fmt.Errorf("%w: field %d has unknown wire type %d", ErrCorrupt, f.tag, f.wire)
		case f.wire != want:
			f.err = fmt.Errorf("%w: field %d has wire type %d, want %d", ErrCorrupt, f.tag, f.wire, want)
		case want != wireFixed64 && n < 0:
			f.err = fmt.Errorf("%w: field %d: varint overflow", ErrCorrupt, f.tag)
		default:
			f.err = fmt.Errorf("%w: field %d (wire %d) cut short", ErrTruncated, f.tag, f.wire)
		}
	}
	f.wire = wireNone
}

func (f *fields) varint() uint64 {
	if f.wire == wireVarint {
		if v, n := binary.Uvarint(f.b[f.off:]); n > 0 {
			f.off += n
			f.unread = false
			return v
		}
	}
	f.fail(wireVarint)
	return 0
}

func (f *fields) int() int   { return unzigzag(f.varint()) }
func (f *fields) bool() bool { return f.varint() != 0 }

func (f *fields) float() float64 {
	if f.wire == wireFixed64 && len(f.b)-f.off >= 8 {
		bits := binary.LittleEndian.Uint64(f.b[f.off:])
		f.off += 8
		f.unread = false
		return math.Float64frombits(bits)
	}
	f.fail(wireFixed64)
	return 0
}

// bytes returns the current field's payload, aliasing the input; nil
// means the read failed.
func (f *fields) bytes() []byte {
	if f.wire == wireBytes {
		if lo, hi, ok := readBytesField(f.b, f.off); ok {
			f.off = hi
			f.unread = false
			return f.b[lo:hi]
		}
	}
	f.fail(wireBytes)
	return nil
}

func (f *fields) floats() []float64 {
	b := f.bytes()
	if b == nil {
		return nil
	}
	if len(b)%8 != 0 {
		f.err, f.wire = fmt.Errorf("%w: packed float field %d of %d bytes", ErrCorrupt, f.tag, len(b)), wireNone
		return nil
	}
	fs := make([]float64, len(b)/8)
	fillFloats(fs, b)
	return fs
}

// enter narrows the cursor to the current field's payload, a nested
// message, and returns what leave restores once its fields are read.
func (f *fields) enter() (outer []byte) {
	outer = f.b
	if msg := f.bytes(); msg != nil {
		f.b, f.off = f.b[:f.off], f.off-len(msg)
	}
	return outer
}

func (f *fields) leave(outer []byte) { f.b = outer }

func parseFile(b []byte) (float64, *core.SiteModelState, error) {
	f := &fields{b: b}
	var threshold float64
	var st *core.SiteModelState
	for f.next() {
		switch f.tag {
		case tagFileThreshold:
			threshold = f.float()
		case tagFileModel:
			st = parseSiteModel(f)
		}
	}
	if f.err != nil {
		return 0, nil, f.err
	}
	if st == nil {
		return 0, nil, fmt.Errorf("%w: file has no model message", ErrCorrupt)
	}
	return threshold, st, nil
}

func parseSiteModel(f *fields) *core.SiteModelState {
	st := &core.SiteModelState{}
	outer := f.enter()
	for f.next() {
		switch f.tag {
		case tagSiteNameThreshold:
			st.Extract.NameThreshold = f.float()
		case tagSiteTrainPages:
			st.TrainPages = f.int()
		case tagSiteCluster:
			cs := parseCluster(f)
			if f.err != nil {
				f.err = fmt.Errorf("cluster %d: %w", len(st.Clusters), f.err)
			}
			st.Clusters = append(st.Clusters, cs)
		}
	}
	f.leave(outer)
	return st
}

func parseCluster(f *fields) (cs core.ClusterModelState) {
	outer := f.enter()
	for f.next() {
		switch f.tag {
		case tagClusterExemplar:
			cs.Exemplar = append(cs.Exemplar, string(f.bytes()))
		case tagClusterTrained:
			cs.Trained = f.bool()
		case tagClusterPages:
			cs.Pages = f.int()
		case tagClusterAnnotatedPages:
			cs.AnnotatedPages = f.int()
		case tagClusterAnnotations:
			cs.Annotations = f.int()
		case tagClusterModel:
			cs.Model = parseModel(f)
		}
	}
	f.leave(outer)
	return cs
}

func parseModel(f *fields) *core.ModelState {
	ms := &core.ModelState{}
	outer := f.enter()
	for f.next() {
		switch f.tag {
		case tagModelClass:
			ms.Classes = append(ms.Classes, string(f.bytes()))
		case tagModelFeaturizer:
			ms.Featurizer = parseFeaturizer(f)
		case tagModelLR:
			ms.LR = parseLR(f)
		}
	}
	f.leave(outer)
	return ms
}

// featurizerScratch is the pooled decode-side scratch for
// parseFeaturizer. A featurizer message is dominated by thousands of
// feature-name strings; converting each with string(b[lo:hi]) made registry
// boot pay one allocation per feature name (~500k for a 1000-model
// store). Instead the parse gathers every name and frequent-string
// payload into one reusable byte arena, converts the arena to a string
// once, and hands out substrings — three allocations per featurizer in
// place of one per name. The span slices record (start, end) pairs in
// arena coordinates.
type featurizerScratch struct {
	arena []byte
	names []int32 // feature-name spans, (start, end) pairs
	freq  []int32 // frequent-string spans, (start, end) pairs
}

var featurizerScratchPool = sync.Pool{New: func() any { return new(featurizerScratch) }}

func parseFeaturizer(f *fields) (fs core.FeaturizerState) {
	sc := featurizerScratchPool.Get().(*featurizerScratch)
	sc.arena = sc.arena[:0]
	sc.names = sc.names[:0]
	sc.freq = sc.freq[:0]
	defer featurizerScratchPool.Put(sc)
	outer := f.enter()
	for f.next() {
		switch f.tag {
		case tagFzOpts:
			fs.Opts = parseFeatureOpts(f)
		case tagFzDictName:
			sc.names = append(sc.names, int32(len(sc.arena)))
			sc.arena = append(sc.arena, f.bytes()...)
			sc.names = append(sc.names, int32(len(sc.arena)))
		case tagFzFrozen:
			fs.Frozen = f.bool()
		case tagFzFrequent:
			sc.freq = append(sc.freq, int32(len(sc.arena)))
			sc.arena = append(sc.arena, f.bytes()...)
			sc.freq = append(sc.freq, int32(len(sc.arena)))
		}
	}
	f.leave(outer)
	if f.err != nil {
		return fs
	}
	// One bulk copy owns every string; the substrings alias it. The whole
	// arena is live data (it is exactly the names and frequent strings),
	// so the shared backing pins nothing extra.
	all := string(sc.arena)
	if n := len(sc.names) / 2; n > 0 {
		fs.Names = make([]string, n)
		for i := range fs.Names {
			fs.Names[i] = all[sc.names[2*i]:sc.names[2*i+1]]
		}
	}
	if n := len(sc.freq) / 2; n > 0 {
		fs.Frequent = make([]string, n)
		for i := range fs.Frequent {
			fs.Frequent[i] = all[sc.freq[2*i]:sc.freq[2*i+1]]
		}
	}
	return fs
}

func parseFeatureOpts(f *fields) (fo core.FeatureOptions) {
	outer := f.enter()
	for f.next() {
		switch f.tag {
		case tagFoMaxAncestors:
			fo.MaxAncestors = f.int()
		case tagFoSiblingWindow:
			fo.SiblingWindow = f.int()
		case tagFoTextAncestors:
			fo.TextAncestors = f.int()
		case tagFoFreqStringMinFrac:
			fo.FrequentStringMinFrac = f.float()
		case tagFoMaxFreqStringLen:
			fo.MaxFrequentStringLen = f.int()
		case tagFoDisableStructural:
			fo.DisableStructural = f.bool()
		case tagFoDisableText:
			fo.DisableText = f.bool()
		}
	}
	f.leave(outer)
	return fo
}

func parseLR(f *fields) *mlr.Model {
	m := &mlr.Model{}
	outer := f.enter()
	for f.next() {
		switch f.tag {
		case tagLRNumClasses:
			m.NumClasses = f.int()
		case tagLRNumFeatures:
			m.NumFeatures = f.int()
		case tagLRW:
			m.W = f.floats()
		case tagLRB:
			m.B = f.floats()
		}
	}
	f.leave(outer)
	return m
}
