package binmodel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// wrapFile frames body as a whole site-model file.
func wrapFile(body []byte) []byte {
	buf := append([]byte(nil), magic[:]...)
	buf = binary.AppendUvarint(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

// appendMessageField frames msg as a bytes field.
func appendMessageField(buf []byte, tag int, msg []byte) []byte {
	buf = appendKey(buf, tag, wireBytes)
	buf = binary.AppendUvarint(buf, uint64(len(msg)))
	return append(buf, msg...)
}

// TestDecodeErrorClassesOfDamagedFields pins the class of damage that
// is neither a short read nor a wrong wire type on a known tag: an
// unknown wire type and a varint that overflows are ErrCorrupt wherever
// they sit, in a known field or in one the decoder skips.
func TestDecodeErrorClassesOfDamagedFields(t *testing.T) {
	overflow := bytes.Repeat([]byte{0xFF}, 11)
	site := func(fields []byte) []byte {
		return wrapFile(appendMessageField(nil, tagFileModel, fields))
	}
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"unknown tag with wire type 5", wrapFile(append(appendKey(nil, 9, 5), 0, 0, 0, 0))},
		{"overflowing varint in train pages", site(append(appendKey(nil, tagSiteTrainPages, wireVarint), overflow...))},
		{"overflowing varint in an unknown tag", site(append(appendKey(nil, 30, wireVarint), overflow...))},
	} {
		if _, _, err := Decode(tc.file); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestDecodeSkipsUnknownLastFieldOfNestedMessage: an unknown field that
// ends a nested message is skipped inside that message, and the fields
// after the message still decode.
func TestDecodeSkipsUnknownLastFieldOfNestedMessage(t *testing.T) {
	cluster := appendStringField(nil, tagClusterExemplar, "html>body")
	cluster = appendKey(cluster, 40, wireFixed64)
	cluster = binary.LittleEndian.AppendUint64(cluster, 7)
	site := appendMessageField(nil, tagSiteCluster, cluster)
	site = appendIntField(site, tagSiteTrainPages, 200)
	body := appendMessageField(nil, tagFileModel, site)
	body = appendFixed64Field(body, tagFileThreshold, math.Float64bits(0.9))

	threshold, st, err := Decode(wrapFile(body))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if threshold != 0.9 || st.TrainPages != 200 || len(st.Clusters) != 1 || len(st.Clusters[0].Exemplar) != 1 {
		t.Fatalf("decoded fields wrong: threshold=%v state=%+v", threshold, st)
	}
}
