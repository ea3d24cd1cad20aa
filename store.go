package ceres

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"ceres/internal/fsatomic"
)

// ErrModelNotFound reports a site or version absent from a ModelStore.
var ErrModelNotFound = errors.New("ceres: model not found in store")

// ErrInvalidSiteName reports a site name a store cannot address safely —
// empty, or one whose escaped form would resolve outside the store root;
// test with errors.Is.
var ErrInvalidSiteName = errors.New("ceres: invalid site name")

// CheckSiteName validates a site name for use as a store partition key.
// Any non-empty name is acceptable as long as its url.PathEscape form is a
// real directory name: "." and ".." (which PathEscape leaves untouched,
// and filepath.Join would resolve out of the store root) are rejected, as
// is anything that still contains a path separator after escaping. Names
// with slashes, spaces or non-ASCII letters are fine — they escape to a
// single safe path segment and unescape back on listing.
func CheckSiteName(site string) error {
	if site == "" {
		return fmt.Errorf("%w: empty", ErrInvalidSiteName)
	}
	esc := url.PathEscape(site)
	if esc == "." || esc == ".." || strings.ContainsAny(esc, `/\`) {
		return fmt.Errorf("%w: %q", ErrInvalidSiteName, site)
	}
	return nil
}

// ModelStore persists trained SiteModels by site and monotonically
// increasing version, so a serving fleet can publish, roll forward and roll
// back extractors without retraining. Implementations must be safe for
// concurrent use.
type ModelStore interface {
	// Publish persists m as the next version of site and returns the
	// version it was assigned. Versions start at 1 and only grow.
	Publish(site string, m *SiteModel) (version int, err error)
	// Open loads one specific stored version of a site's model.
	// It returns ErrModelNotFound for a site or version not in the store.
	Open(site string, version int) (*SiteModel, error)
	// Latest loads the newest stored version of a site's model.
	Latest(site string) (*SiteModel, int, error)
	// List enumerates the stored sites and their versions, sorted by site
	// (versions ascending).
	List() ([]StoreEntry, error)
	// Untrainable returns the verdict MarkUntrainable recorded for the
	// site — the reason training failed — provided it was recorded under
	// the same key; a verdict under any other key is no verdict. A site
	// with a verdict and no model is in no listing.
	Untrainable(site, key string) (reason string, ok bool, err error)
	// MarkUntrainable records that training the site failed with reason,
	// replacing any earlier verdict. key names the inputs the failure is a
	// property of (Pipeline.TrainingKey plus the page range), valid UTF-8;
	// Publish clears the verdict.
	MarkUntrainable(site, key, reason string) error
}

// StoreEntry is one site of a ModelStore listing.
type StoreEntry struct {
	Site     string
	Versions []int
}

// DirStore is a filesystem ModelStore: one directory per site (its name
// URL-path-escaped), one `v%06d.bin` file (`ceres.sitemodel/3`, the
// WriteBinary format) per published version. Publish writes to a temporary
// file in the same directory, then links it into place atomically, so
// readers — including other processes watching the directory — never
// observe a torn model, and a version file is never overwritten once it
// exists. Version numbers are recovered from the directory listing, so a
// DirStore survives restarts and can be shared by several processes:
// concurrent publishers of the same site each get their own version (a
// collision re-assigns the number and retries the link). A training
// verdict (MarkUntrainable) is one more atomically written file of the
// site's directory, verdictFile, which no listing counts as a version.
type DirStore struct {
	root string
	mu   sync.Mutex // serializes in-process version assignment
}

// NewDirStore opens (creating if needed) a filesystem model store rooted
// at dir.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ceres: opening model store: %w", err)
	}
	return &DirStore{root: dir}, nil
}

// Root returns the store's root directory.
func (s *DirStore) Root() string { return s.root }

func (s *DirStore) siteDir(site string) string {
	return filepath.Join(s.root, url.PathEscape(site))
}

// extBinary is the extension of a version file.
const extBinary = ".bin"

func versionFile(v int) string { return fmt.Sprintf("v%06d%s", v, extBinary) }

// verdictFile holds a site's training verdict; parseVersion does not
// take it for a version.
const verdictFile = "untrainable.json"

// verdict is verdictFile's content.
type verdict struct {
	Key    string `json:"key"`
	Reason string `json:"reason"`
}

// ensureSiteDir creates the site's directory if it is missing, flushing
// the root so that what is then published inside it cannot outlive it.
func (s *DirStore) ensureSiteDir(site string) (string, error) {
	dir := s.siteDir(site)
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, fsatomic.SyncDir(s.root)
}

// parseVersion extracts N from a "vNNNNNN.bin" file name, -1 otherwise.
func parseVersion(name string) int {
	digits, ok := strings.CutSuffix(name, extBinary)
	if !ok || !strings.HasPrefix(digits, "v") {
		return -1
	}
	n, err := strconv.Atoi(digits[1:])
	if err != nil || n < 1 {
		return -1
	}
	return n
}

// versions lists a site's stored versions, ascending; empty when the site
// has none.
func (s *DirStore) versions(site string) ([]int, error) {
	ents, err := os.ReadDir(s.siteDir(site))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ceres: listing model store: %w", err)
	}
	var out []int
	for _, e := range ents {
		if v := parseVersion(e.Name()); v > 0 && !e.IsDir() {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Publish implements ModelStore: serialize m, write it to a temp file in
// the site's directory, fsync, link it into place as the next version
// number, flush the directory, and drop the site's training verdict.
// Linking (not renaming) makes that step fail instead of clobber when
// another process published the same version concurrently; on that
// collision the version is re-assigned and the link retried, so
// concurrent publishers each keep their own complete model.
func (s *DirStore) Publish(site string, m *SiteModel) (int, error) {
	if err := CheckSiteName(site); err != nil {
		return 0, fmt.Errorf("ceres: publishing model: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir, err := s.ensureSiteDir(site)
	if err != nil {
		return 0, fmt.Errorf("ceres: publishing model: %w", err)
	}
	vs, err := s.versions(site)
	if err != nil {
		return 0, err
	}
	version := 1
	if len(vs) > 0 {
		version = vs[len(vs)-1] + 1
	}
	tmp, err := fsatomic.CreateTemp(dir, ".publish-*")
	if err != nil {
		return 0, fmt.Errorf("ceres: publishing model: %w", err)
	}
	defer tmp.Abort() // the published file is a separate link
	_, err = m.WriteBinary(tmp)
	if err == nil {
		// Published versions are world-readable so other processes
		// sharing the store can serve them.
		err = tmp.Seal()
	}
	if err != nil {
		return 0, fmt.Errorf("ceres: publishing model: %w", err)
	}
	for {
		err := tmp.Link(filepath.Join(dir, versionFile(version)))
		if err == nil {
			break
		}
		if !os.IsExist(err) {
			return 0, fmt.Errorf("ceres: publishing model: %w", err)
		}
		version++ // another process took this version; try the next
	}
	// The version is only durable once its directory entry is flushed;
	// without this a crash could resurrect the number for a different
	// model.
	if err := fsatomic.SyncDir(dir); err != nil {
		return 0, fmt.Errorf("ceres: publishing model: %w", err)
	}
	// A model outranks a verdict wherever both are consulted, so a crash
	// before this line leaves a stale file, not a wrong answer.
	if err := fsatomic.Remove(filepath.Join(dir, verdictFile)); err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("ceres: publishing model: %w", err)
	}
	return version, nil
}

// Untrainable implements ModelStore. A verdict file that does not parse
// is treated like one under another key: ignored, and overwritten by the
// next MarkUntrainable.
func (s *DirStore) Untrainable(site, key string) (string, bool, error) {
	if err := CheckSiteName(site); err != nil {
		return "", false, fmt.Errorf("ceres: reading training verdict: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(s.siteDir(site), verdictFile))
	if err != nil {
		if os.IsNotExist(err) {
			return "", false, nil
		}
		return "", false, fmt.Errorf("ceres: reading training verdict: %w", err)
	}
	var v verdict
	if json.Unmarshal(data, &v) != nil || v.Key != key {
		return "", false, nil
	}
	return v.Reason, true, nil
}

// MarkUntrainable implements ModelStore. It refuses a key that is not
// valid UTF-8: encoding/json would store it altered, under a key another
// caller could ask for. An invalid reason is stored with U+FFFD in place
// of its bad bytes.
func (s *DirStore) MarkUntrainable(site, key, reason string) error {
	if err := CheckSiteName(site); err != nil {
		return fmt.Errorf("ceres: writing training verdict: %w", err)
	}
	if !utf8.ValidString(key) {
		return fmt.Errorf("ceres: writing training verdict: key %q is not valid UTF-8", key)
	}
	data, err := json.Marshal(verdict{Key: key, Reason: reason})
	if err != nil {
		return fmt.Errorf("ceres: writing training verdict: %w", err)
	}
	dir, err := s.ensureSiteDir(site)
	if err == nil {
		err = fsatomic.WriteFile(filepath.Join(dir, verdictFile), append(data, '\n'))
	}
	if err != nil {
		return fmt.Errorf("ceres: writing training verdict: %w", err)
	}
	return nil
}

// Open implements ModelStore.
func (s *DirStore) Open(site string, version int) (*SiteModel, error) {
	if err := CheckSiteName(site); err != nil {
		return nil, fmt.Errorf("ceres: opening model: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(s.siteDir(site), versionFile(version)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: site %q version %d", ErrModelNotFound, site, version)
		}
		return nil, fmt.Errorf("ceres: opening model: %w", err)
	}
	return readSiteModelBytes(data)
}

// Latest implements ModelStore.
func (s *DirStore) Latest(site string) (*SiteModel, int, error) {
	if err := CheckSiteName(site); err != nil {
		return nil, 0, fmt.Errorf("ceres: opening model: %w", err)
	}
	vs, err := s.versions(site)
	if err != nil {
		return nil, 0, err
	}
	if len(vs) == 0 {
		return nil, 0, fmt.Errorf("%w: site %q", ErrModelNotFound, site)
	}
	v := vs[len(vs)-1]
	m, err := s.Open(site, v)
	if err != nil {
		return nil, 0, err
	}
	return m, v, nil
}

// List implements ModelStore.
func (s *DirStore) List() ([]StoreEntry, error) {
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("ceres: listing model store: %w", err)
	}
	var out []StoreEntry
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		site, err := url.PathUnescape(e.Name())
		if err != nil {
			continue // not a store directory
		}
		vs, err := s.versions(site)
		if err != nil {
			return nil, err
		}
		if len(vs) == 0 {
			continue
		}
		out = append(out, StoreEntry{Site: site, Versions: vs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out, nil
}
