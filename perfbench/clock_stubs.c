#include <time.h>
#include <caml/mlvalues.h>

/* Monotonic clock in nanoseconds as an OCaml int: no allocation, so it
   can bracket a call without disturbing the allocation counters. */
value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
