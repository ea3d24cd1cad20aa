// Package a seeds goroutines violations: every go statement in library
// code is flagged, whatever it starts, unless an ignore says why.
package a

import "sync"

func spawnLiteral(n int) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() { wg.Done() }() // want "go statement in library code"
	}
	wg.Wait()
}

func work(done chan struct{}) { close(done) }

func spawnCall() {
	done := make(chan struct{})
	go work(done) // want "go statement in library code"
	<-done
}

// stage is a long-lived goroutine owned by a value: an ignore that says
// why silences the finding.
type stage struct{ done chan struct{} }

func (s *stage) start() {
	//ceresvet:ignore goroutines the stage outlives the call that starts it; stop() joins it
	go s.loop()
}

func (s *stage) loop() { close(s.done) }

func (s *stage) stop() { <-s.done }

func wrongIgnore() {
	done := make(chan struct{})
	//ceresvet:ignore ctxflow an ignore for another analyzer does not suppress this one
	go work(done) // want "go statement in library code"
	<-done
}
