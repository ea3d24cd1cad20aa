package binmodel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"ceres/internal/core"
	"ceres/internal/mlr"
)

// fullState builds a state exercising every encoded field, including
// zero values that the canonical encoding omits.
func fullState() *core.SiteModelState {
	return &core.SiteModelState{
		Clusters: []core.ClusterModelState{
			{
				Exemplar:       []string{"html>body>div", "", "html>body>span"},
				Trained:        true,
				Pages:          40,
				AnnotatedPages: 12,
				Annotations:    99,
				Model: &core.ModelState{
					Classes: []string{"_none_", "title", "director"},
					Featurizer: core.FeaturizerState{
						Opts: core.FeatureOptions{
							MaxAncestors:          5,
							SiblingWindow:         2,
							TextAncestors:         3,
							FrequentStringMinFrac: 0.2,
							MaxFrequentStringLen:  24,
							DisableStructural:     false,
							DisableText:           true,
						},
						Names:    []string{"tag=div", "depth=3", "text:genre"},
						Frozen:   true,
						Frequent: []string{"Director", "Genre"},
					},
					LR: &mlr.Model{
						NumClasses:  3,
						NumFeatures: 2,
						W:           []float64{0.5, -1.25, 0, 3.75, math.Inf(1), -0.001},
						B:           []float64{0.1, 0, -0.2},
					},
				},
			},
			{
				// Untrained cluster with no model and zero counters.
				Exemplar: []string{"html>body>p"},
			},
			{}, // fully zero cluster
		},
		Extract:    core.ExtractOptions{NameThreshold: 0.65},
		TrainPages: -1, // negative exercises zigzag
	}
}

func TestRoundTripFull(t *testing.T) {
	st := fullState()
	buf := Append(nil, 0.9, st)

	threshold, got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if threshold != 0.9 {
		t.Fatalf("threshold = %v, want 0.9", threshold)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("decoded state differs from input:\n got %+v\nwant %+v", got, st)
	}
}

func TestRoundTripZeroState(t *testing.T) {
	st := &core.SiteModelState{}
	buf := Append(nil, 0, st)
	threshold, got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if threshold != 0 {
		t.Fatalf("threshold = %v, want 0", threshold)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("decoded state differs: %+v", got)
	}
}

func TestEncodingDeterministic(t *testing.T) {
	st := fullState()
	a := Append(nil, 0.42, st)
	b := Append(nil, 0.42, st)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same state differ")
	}
}

func TestAppendReusesCapacity(t *testing.T) {
	st := fullState()
	first := Append(nil, 0.42, st)
	buf := first[:0]
	second := Append(buf, 0.42, st)
	if &second[0] != &first[0] {
		t.Fatal("Append reallocated despite sufficient capacity")
	}
	allocs := testing.AllocsPerRun(10, func() {
		buf = Append(buf[:0], 0.42, st)
	})
	if allocs != 0 {
		t.Fatalf("Append into warm buffer allocated %v times per run", allocs)
	}
}

func TestWriteMatchesAppend(t *testing.T) {
	st := fullState()
	var w bytes.Buffer
	n, err := Write(&w, 0.42, st)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	want := Append(nil, 0.42, st)
	if n != int64(len(want)) || !bytes.Equal(w.Bytes(), want) {
		t.Fatal("Write output differs from Append")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte(`{"format":"ceres.sitemodel/2","model":{}}`),
		[]byte("garbage"),
		{0xC9, 'X', 'X', 'X', 'X', 'X', 'X', 'X'},
	} {
		if _, _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
			t.Errorf("Decode(%q) err = %v, want ErrBadMagic", data, err)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc := Append(nil, 0.9, fullState())
	// Cut at three structurally distinct points: inside the magic,
	// inside the header varints, and inside the body.
	cuts := []int{3, len(magic) + 1, len(enc) / 2, len(enc) - 1}
	for _, cut := range cuts {
		_, _, err := Decode(enc[:cut])
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(enc[:%d]) err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	enc := Append(nil, 0.9, fullState())
	enc = append(enc, 0xFF)
	if _, _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode with trailing byte err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeUnsupportedVersion(t *testing.T) {
	var buf []byte
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, Version+1)
	buf = binary.AppendUvarint(buf, 0)
	if _, _, err := Decode(buf); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("Decode future version err = %v, want ErrUnsupportedVersion", err)
	}
}

func TestDecodeCorruptWireType(t *testing.T) {
	// File body with the threshold tag framed as a varint instead of
	// fixed64.
	var body []byte
	body = appendKey(body, tagFileThreshold, wireVarint)
	body = binary.AppendUvarint(body, 7)
	var buf []byte
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	if _, _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode wrong wire type err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeMissingModel(t *testing.T) {
	var body []byte
	body = appendFixed64Field(body, tagFileThreshold, math.Float64bits(0.5))
	var buf []byte
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	if _, _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode without model message err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeOddFloatPayload(t *testing.T) {
	// An lr message whose W field carries 9 bytes (not a multiple of 8).
	var lr []byte
	lr = appendKey(lr, tagLRW, wireBytes)
	lr = binary.AppendUvarint(lr, 9)
	lr = append(lr, make([]byte, 9)...)
	var model []byte
	model = appendKey(model, tagModelLR, wireBytes)
	model = binary.AppendUvarint(model, uint64(len(lr)))
	model = append(model, lr...)
	var cluster []byte
	cluster = appendKey(cluster, tagClusterModel, wireBytes)
	cluster = binary.AppendUvarint(cluster, uint64(len(model)))
	cluster = append(cluster, model...)
	var site []byte
	site = appendKey(site, tagSiteCluster, wireBytes)
	site = binary.AppendUvarint(site, uint64(len(cluster)))
	site = append(site, cluster...)
	var body []byte
	body = appendKey(body, tagFileModel, wireBytes)
	body = binary.AppendUvarint(body, uint64(len(site)))
	body = append(body, site...)
	var buf []byte
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	if _, _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode odd packed-float payload err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeSkipsUnknownFields proves forward compatibility: a file
// carrying tags this decoder has never heard of (one per wire type, at
// both file and site-model level) — or the reserved site-model tag 2,
// the trainer's worker count in files written before the field was
// dropped — still decodes to the known fields.
func TestDecodeSkipsUnknownFields(t *testing.T) {
	const unknownTag = 63
	var site []byte
	site = appendKey(site, unknownTag, wireVarint)
	site = binary.AppendUvarint(site, 12345)
	site = appendFixed64Field(site, tagSiteNameThreshold, math.Float64bits(0.65))
	site = appendKey(site, unknownTag+1, wireBytes)
	site = binary.AppendUvarint(site, 4)
	site = append(site, "beef"...)
	site = appendIntField(site, 2, 8)
	site = appendIntField(site, tagSiteTrainPages, 200)

	var body []byte
	body = appendKey(body, unknownTag, wireFixed64)
	body = binary.LittleEndian.AppendUint64(body, 0xDEADBEEF)
	body = appendFixed64Field(body, tagFileThreshold, math.Float64bits(0.9))
	body = appendKey(body, tagFileModel, wireBytes)
	body = binary.AppendUvarint(body, uint64(len(site)))
	body = append(body, site...)

	var buf []byte
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)

	threshold, st, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode with unknown fields: %v", err)
	}
	if threshold != 0.9 || st.Extract.NameThreshold != 0.65 || st.TrainPages != 200 {
		t.Fatalf("decoded fields wrong: threshold=%v state=%+v", threshold, st)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int{0, 1, -1, 63, -64, 1 << 30, -(1 << 30), math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}
