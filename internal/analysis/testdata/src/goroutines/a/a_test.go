package a

// Test files start goroutines freely.
func spawnInTest() {
	done := make(chan struct{})
	go work(done)
	<-done
}
