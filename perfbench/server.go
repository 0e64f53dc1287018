package main

import (
	"fmt"
	"net"

	"fastforward/internal/relayd"
)

// daemon is an in-process relayd.Server on a loopback listener.
type daemon struct {
	srv    *relayd.Server
	ln     net.Listener
	addr   string
	served chan error
}

func startDaemon(cfg relayd.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: relayd.New(cfg), ln: ln, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop closes the daemon and waits for its accept loop to return. The
// listener is closed here too, in case the accept loop had not yet
// registered it with the server.
func (d *daemon) stop() error {
	d.srv.Close()
	d.ln.Close() // already closed by the server in the usual case
	if err := <-d.served; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}
