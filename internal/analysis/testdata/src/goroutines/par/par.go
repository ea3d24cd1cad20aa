// Package par mimics the library's fan-out package: the go statements
// have to live somewhere, so any package named par is exempt.
package par

import "sync"

func For(n int, fn func(int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}
