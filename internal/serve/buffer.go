package serve

import (
	"context"
	"errors"
	"io"
	"sync"
)

// errBufferClosed: a write reached a buffer after Close. The executor
// finishes writing before the job turns terminal, so this never happens;
// refusing the write keeps a closed buffer immutable, which is what lets
// jobs and the result cache share its bytes.
var errBufferClosed = errors.New("serve: write to a closed result buffer")

// buffer is an append-only byte log with blocking readers: the job's
// executor writes NDJSON records as they are produced, and any number of
// concurrent readers stream them from the start. Close marks the log
// final, after which drained readers return io.EOF.
//
// Bytes once written never change (append may move the log, never edit
// it), so a slice of the written prefix stays valid without the lock, and
// a closed buffer is immutable: its bytes are shared, never copied.
type buffer struct {
	mu     sync.Mutex
	cond   sync.Cond
	data   []byte
	closed bool
}

func newBuffer() *buffer {
	b := &buffer{}
	b.cond.L = &b.mu
	return b
}

// closedBuffer wraps a finished body, without copying it, as a buffer
// that is already closed. The caller must not modify body afterwards.
func closedBuffer(body []byte) *buffer {
	b := &buffer{data: body, closed: true}
	b.cond.L = &b.mu
	return b
}

// Write appends p; it never blocks on readers.
func (b *buffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, errBufferClosed
	}
	b.data = append(b.data, p...)
	b.mu.Unlock()
	b.cond.Broadcast()
	return len(p), nil
}

// Close marks the stream complete and wakes blocked readers. Idempotent.
func (b *buffer) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// wake rouses blocked readers so they recheck their context.
func (b *buffer) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Len returns the bytes written so far.
func (b *buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.data)
}

// Bytes returns the stream written so far. The slice is the log's own
// storage, shared rather than copied: callers must not modify it. Its
// capacity is capped, so appending to it cannot reach the log.
func (b *buffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.data[:len(b.data):len(b.data)]
}

// writeTo streams the log from the start to w, flushing after each chunk
// when w has a Flush method, until the log is closed and drained (nil) or
// ctx is done (ctx.Err()). Each chunk is a slice of the log itself, so
// nothing is copied, and streaming a closed log allocates nothing. A
// reader blocked waiting for more output wakes when ctx is done.
func (b *buffer) writeTo(ctx context.Context, w io.Writer) (err error) {
	flusher, _ := w.(interface{ Flush() })
	var stop func() bool
	b.mu.Lock()
	for off := 0; ; {
		for off == len(b.data) && !b.closed && err == nil {
			if err = ctx.Err(); err == nil {
				if stop == nil {
					stop = context.AfterFunc(ctx, b.wake)
				}
				b.cond.Wait()
			}
		}
		chunk := b.data[off:]
		b.mu.Unlock()
		if err != nil || len(chunk) == 0 {
			break
		}
		if _, err = w.Write(chunk); err != nil {
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
		off += len(chunk)
		b.mu.Lock()
	}
	if stop != nil {
		stop()
	}
	return err
}

// Reader returns an independent reader positioned at the start.
func (b *buffer) Reader() *ResultReader { return &ResultReader{b: b} }

// ResultReader streams a job's NDJSON result bytes. Read blocks while the
// job is still producing output and returns io.EOF once the stream is
// closed and fully consumed. A ResultReader is not safe for concurrent
// use; take one per consumer.
type ResultReader struct {
	b   *buffer
	off int
}

// Read implements io.Reader.
func (r *ResultReader) Read(p []byte) (int, error) {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	for r.off >= len(b.data) && !b.closed {
		b.cond.Wait()
	}
	if r.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[r.off:])
	r.off += n
	return n, nil
}

var _ io.Reader = (*ResultReader)(nil)
