package a

import (
	"os"

	"ceres/internal/fsatomic"
)

// Test files write fixtures freely and may install the fault seam: no
// diagnostics here.
func helperForTests(dir string) error {
	defer fsatomic.SetHook(nil)()
	if err := os.WriteFile(dir+"/fixture", nil, 0o644); err != nil {
		return err
	}
	return os.Rename(dir+"/fixture", dir+"/fixture2")
}
