let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9
