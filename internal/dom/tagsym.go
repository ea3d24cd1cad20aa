package dom

import (
	"sync"
	"sync/atomic"
)

// maxTagSyms bounds the process-wide tag symbol table. HTML permits
// arbitrary tag names, so adversarial input could otherwise grow the
// table without limit; past the cap new tags simply get symbol 0
// (unsymbolized) and consumers fall back to string keys.
const maxTagSyms = 4096

var (
	tagSymMu  sync.Mutex
	tagSymTab atomic.Pointer[map[string]int32]
)

// TagSym returns the process-wide symbol (≥ 1) for an element tag name,
// assigning the next free symbol on first sight, or 0 once the symbol
// space is exhausted. Symbols are stable for the life of the process —
// never reused, never reordered — so any table indexed by symbol stays
// valid. Reads are lock-free (one atomic load); assignment copies the
// table, so the write cost is paid at most maxTagSyms times ever.
func TagSym(tag string) int32 {
	if m := tagSymTab.Load(); m != nil {
		if s, ok := (*m)[tag]; ok {
			return s
		}
	}
	tagSymMu.Lock()
	defer tagSymMu.Unlock()
	old := tagSymTab.Load()
	var m map[string]int32
	if old != nil {
		if s, ok := (*old)[tag]; ok {
			return s
		}
		if len(*old) >= maxTagSyms {
			return 0
		}
		m = make(map[string]int32, len(*old)+1)
		for k, v := range *old {
			m[k] = v
		}
	} else {
		m = make(map[string]int32, 64)
	}
	s := int32(len(m) + 1)
	m[tag] = s
	tagSymTab.Store(&m)
	return s
}
