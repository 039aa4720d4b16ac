package netsim

import (
	"context"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// wait blocks for d on a one-shot timerfd registered with the netpoller, so
// the kernel's high-resolution timer ends the wait, not the runtime's
// millisecond epoll timeout. Cancellation moves the read deadline into the
// past, which wakes the read at once. A timerfd that cannot be made (EMFILE)
// falls back to the runtime timer.
func wait(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f, err := newTimerFile(d)
	if err != nil {
		return timerWait(ctx, d)
	}
	defer f.Close()
	stop := context.AfterFunc(ctx, func() {
		// Fails only if the wait has already ended and closed f.
		_ = f.SetReadDeadline(time.Unix(1, 0))
	})
	var expirations [8]byte
	_, err = f.Read(expirations[:])
	stop()
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return fmt.Errorf("netsim: wait on timerfd: %w", err)
	}
	return nil
}

// newTimerFile returns a non-blocking CLOCK_MONOTONIC timerfd armed to fire
// once after d, wrapped in an os.File so its reads park in the netpoller.
func newTimerFile(d time.Duration) (*os.File, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	// A zero it_value disarms the timer: a wait always asks for at least 1 ns.
	spec := struct{ interval, value syscall.Timespec }{
		value: syscall.NsecToTimespec(max(int64(d), 1)),
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, errno
	}
	return os.NewFile(fd, "netsim-timerfd"), nil
}
