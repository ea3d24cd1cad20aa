package mlr

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches a listing line such as
//
//	0x00d4 00212 (/src/internal/mlr/fit.go:193)	FMADDD	F8, F0, F9, F0
var fusedOp = regexp.MustCompile(`\(([^()]*\.go):(\d+)\)\s+(FN?M(?:ADD|SUB))[DS]\s`)

// TestNoFusedMultiplyAdd cross-compiles the package for arm64, an
// architecture whose compiler fuses x*y + z into one instruction with a
// single rounding, and fails on any fused op in a file of the package: a
// fused multiply-add would make trained weights and served scores depend
// on the architecture. amd64 never fuses, so only this listing shows a
// product that lacks its explicit float64(x*y) rounding. Code the package
// inlines from elsewhere (math) is listed under its own files and is not
// held to this.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the package")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(gobin, "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	listing := string(out)
	if !strings.Contains(listing, "ceres/internal/mlr.(*rows).lossGrad STEXT") {
		t.Fatalf("no assembly listing of lossGrad in the build output:\n%.2000s", listing)
	}
	for _, m := range fusedOp.FindAllStringSubmatch(listing, -1) {
		if strings.HasSuffix(filepath.ToSlash(filepath.Dir(m[1])), "internal/mlr") {
			t.Errorf("%s:%s: fused %s; wrap the product as float64(x*y)", filepath.Base(m[1]), m[2], m[3])
		}
	}
}
