"""Reference-normalised timing.

The machines this benchmark runs on change speed by up to about 1.7x every
few seconds, so raw seconds do not repeat between runs.  Every timed unit
therefore sits between two runs of a fixed pure-Python reference loop, and
units longer than TICK_S also run the loop every TICK_S seconds while they
run.  A unit's figure is its time divided by the mean of those reference
times, scaled by the loop's fixed nominal duration, so that it reads in
seconds of a machine in its fast state.  The ticks matter for units longer
than the machine's speed changes, whose two ends alone can miss the state
the unit mostly ran in.
"""

import gc
import signal
import statistics
import sys
import time
from fractions import Fraction

REF_TERMS = 1200
# Duration of reference_loop() on a 2-vCPU x86-64 virtual machine in its fast state
# (CPython 3.11); a fixed constant, so normalised figures compare across runs.
REF_NOMINAL_S = 0.0054
TICK_S = 0.2
SWITCH_S = 0.05

clock = time.perf_counter


def reference_loop():
    """Fraction arithmetic on small operands, interpreter-bound like the
    engine's scalar code.  Of the loops tried, its ratio to engine units
    varied least between 25-s windows (see README.md)."""
    acc = Fraction(0)
    half = Fraction(1, 2)
    for k in range(1, REF_TERMS):
        acc = (acc + Fraction(k % 7 + 1, k % 5 + 2)) * half
    return acc


def timed_reference():
    """Seconds for one reference loop, with the collector off so that the
    figure follows the machine's speed and not the size of the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        reference_loop()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def timed_unit(fn, before, ticks=True):
    """Run fn() as one timed unit.

    `before` is the reference time measured just before.  Returns (fn's
    result, sample, reference time measured just after), where sample is
    (seconds of fn, [reference times before, during and after]); the time
    after doubles as the next unit's `before`.

    With ticks, the reference loop also runs every TICK_S seconds during fn
    from a SIGALRM handler, and the handler's time is taken out of fn's.
    The engine runs each check on a pool thread, and the handler runs in the
    main thread; raising the switch interval to SWITCH_S, longer than one
    reference loop, lets the handler keep the interpreter lock for the whole
    loop instead of sharing it with the check.  A tracer's clock readings
    would include the handler, so traced runs go without ticks.
    """
    refs = [before]
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        t0 = clock()
        refs.append(timed_reference())
        spent += clock() - t0

    if ticks:
        switch = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_S)
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    t0 = clock()
    try:
        out = fn()
    finally:
        t = clock() - t0
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            sys.setswitchinterval(switch)
    after = timed_reference()
    refs.append(after)
    return out, (t - spent, refs), after


def normalised(sample):
    """A (seconds, reference times) sample in nominal seconds."""
    t, refs = sample
    return t / statistics.fmean(refs) * REF_NOMINAL_S
