package experiments

import (
	"errors"
	"io"
	"os"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/trace"
)

// newWorld builds the world a driver measures.
func newWorld(cfg ulp.Config) *ulp.World {
	w := ulp.NewWorld(cfg)
	if os.Getenv("ULP_TRACE") == "1" {
		// Exercise every emission path during the run (CI diffs traced
		// against untraced tables for bit-identity). The no-op subscriber
		// matters: a bus with no subscribers reports Enabled() == false and
		// the producers skip their hooks entirely.
		w.EnableTrace().Subscribe(func(trace.Event) {})
	}
	return w
}

// errUnfinished reports a run that spent its virtual-time budget.
var errUnfinished = errors.New("experiments: run did not finish within its budget")

// exchange is one client/server run on a two-host world. The server thread
// (host 0, app "server") listens on port 80 and hands the listener to serve;
// 1 ms later the client thread (host 1, app "client") runs client, whose
// dial connects to the server. Both sides use opts.
//
// The run ends at the first error either side returns, or when the client
// returns — the server, with serverEnds. A run still going when the budget
// of virtual time is spent is an error.
type exchange struct {
	opts       stacks.Options
	budget     time.Duration
	serverEnds bool
	serve      func(t *kern.Thread, l stacks.Listener) error
	client     func(t *kern.Thread, dial func() (stacks.Conn, error)) error
}

func (x exchange) run(w *ulp.World) error {
	const port = 80
	srv, cli := w.Node(0).App("server"), w.Node(1).App("client")
	var failure error
	done := false
	end := func(err error, ends bool) {
		if err != nil && failure == nil {
			failure = err
		}
		done = done || ends || err != nil
	}
	srv.Go("srv", func(t *kern.Thread) {
		l, err := srv.Stack.Listen(t, port, x.opts)
		if err == nil {
			err = x.serve(t, l)
		}
		end(err, x.serverEnds)
	})
	cli.GoAfter(time.Millisecond, "cli", func(t *kern.Thread) {
		end(x.client(t, func() (stacks.Conn, error) {
			return cli.Stack.Connect(t, w.Endpoint(0, port), x.opts)
		}), !x.serverEnds)
	})
	w.RunUntil(x.budget, func() bool { return done })
	switch {
	case failure != nil:
		return failure
	case !done:
		return errUnfinished
	}
	return nil
}

// readFull reads exactly len(p) bytes from c; the stream ending first is an
// error.
func readFull(t *kern.Thread, c stacks.Conn, p []byte) error {
	for got := 0; got < len(p); {
		n, err := c.Read(t, p[got:])
		if err != nil {
			return err
		}
		if n == 0 {
			return io.ErrUnexpectedEOF
		}
		got += n
	}
	return nil
}
