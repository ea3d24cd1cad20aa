package bench

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed golden reports from this run")

// TestQuickGolden pins every experiment's report at QuickConfig byte for
// byte against testdata/quick/<id>.txt: every table and figure the paper's
// §5 reads, at reduced scale, so a change that means to leave the numbers
// alone proves it. Like TestFusedGolden in ceres/batch, the bytes are
// amd64's arithmetic (model fits and confidences; another GOARCH may fuse
// multiply-adds and move a cell). It pins arithmetic, not concurrency, so
// it skips under the race detector, where it takes minutes, as well as
// under -short. go test -run TestQuickGolden ./internal/bench -update
// rewrites the files.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in -short mode")
	}
	if raceEnabled {
		t.Skip("pins arithmetic, not concurrency: minutes under -race")
	}
	cfg := QuickConfig()
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			got := []byte(FormatReport(e.Run(context.Background(), cfg)))
			path := filepath.Join("testdata", "quick", e.ID+".txt")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
