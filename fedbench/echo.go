package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

// The null server: a bare HTTP server in the benchmark's own code that
// answers every request with a fixed body. Its round trips, sent in the same
// open loop as the daemon's requests, measure what one loopback HTTP
// request costs on the host at that moment.

// echoEnv marks a null-server child in its environment.
const echoEnv = "FEDBENCH_ECHO"

// echoBody is about the size of a warm-churn allocation body.
var echoBody = bytes.Repeat([]byte("0123456789abcdef"), 256)

// echoChild serves as the null server when this process was started as one,
// and otherwise returns. SIGTERM stops it with exit status 0.
func echoChild() {
	if _, ok := os.LookupEnv(echoEnv); !ok {
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench null server:", err)
		os.Exit(1)
	}
	fmt.Printf("fedbench null server listening on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(echoBody)
	})}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM)
		<-sig
		srv.Close()
	}()
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "fedbench null server:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// startEcho starts a null server.
func startEcho() (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return startServer(self, []string{echoEnv + "=1"})
}
