package retrieval

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a test leaves a node server's accept or
// connection goroutine, or a client connection's reader, running.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := leakedGoroutines(); leaked != "" {
		fmt.Fprintf(os.Stderr, "goroutines still running after the tests:\n\n%s\n", leaked)
		code = 1
	}
	os.Exit(code)
}

// wireLoops are the goroutines a NodeServer or TCPTransport runs until it
// is closed.
var wireLoops = []string{
	"duo/internal/retrieval.(*NodeServer).acceptLoop",
	"duo/internal/retrieval.(*NodeServer).serveConn",
	"duo/internal/retrieval.(*muxConn).readLoop",
}

// leakedGoroutines polls the goroutine dump for about 2 s, giving closed
// connections time to unwind, and returns the stacks that still run one of
// the retrieval wire loops.
func leakedGoroutines() string {
	buf := make([]byte, 1<<20)
	for i := 0; ; i++ {
		var leaked []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			for _, loop := range wireLoops {
				if strings.Contains(g, loop) {
					leaked = append(leaked, g)
					break
				}
			}
		}
		if len(leaked) == 0 || i == 100 {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(20 * time.Millisecond) //duolint:allow walltime polling cadence of the end-of-run leak check only
	}
}
