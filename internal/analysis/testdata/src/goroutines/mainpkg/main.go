// Command mainpkg proves entry points are exempt: a main package owns its
// process and starts goroutines freely.
package main

func main() {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
