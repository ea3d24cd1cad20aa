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

// outputPackages are the packages whose arithmetic decides model bytes,
// served confidences and fused beliefs.
var outputPackages = []string{"internal/mlr", "internal/core", "internal/fusion", "internal/cluster"}

// TestNoFusedMultiplyAdd cross-compiles outputPackages for arm64, an
// architecture whose compiler fuses x*y + z into one instruction with a
// single rounding, and fails on any fused op in a file of theirs: a
// fused multiply-add would make trained weights, served scores and fused
// beliefs depend on the architecture. amd64 never fuses, so only this
// listing shows a product that lacks its explicit float64(x*y) rounding.
// Code they inline from elsewhere (math) is listed under its own files
// and is not held to this.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the output packages")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	args := []string{"build", "-gcflags=-S"}
	for _, p := range outputPackages {
		args = append(args, "ceres/"+p)
	}
	cmd := exec.Command(gobin, args...)
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	listing := string(out)
	for _, p := range outputPackages {
		if !regexp.MustCompile(`(?m)^ceres/` + p + `\.\S+ STEXT`).MatchString(listing) {
			t.Fatalf("no assembly listing of ceres/%s in the build output:\n%.2000s", p, listing)
		}
	}
	for _, m := range fusedOp.FindAllStringSubmatch(listing, -1) {
		dir := filepath.ToSlash(filepath.Dir(m[1]))
		for _, p := range outputPackages {
			if strings.HasSuffix(dir, p) {
				t.Errorf("%s/%s:%s: fused %s; wrap the product as float64(x*y)", p, filepath.Base(m[1]), m[2], m[3])
			}
		}
	}
}
