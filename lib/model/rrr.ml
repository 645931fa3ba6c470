let check_level level =
  if level <= 0.0 || level >= 1.0 then
    invalid_arg "Rrr: level out of (0, 1)"

let window ~level ~loss_rate =
  check_level level;
  if loss_rate <= 0.0 || loss_rate > 1.0 then
    invalid_arg "Rrr.window: loss_rate out of (0, 1]";
  sqrt ((2.0 -. level) /. (2.0 *. level *. loss_rate))

let window_limited ~level ~loss_rate ~rwnd =
  if rwnd < 1 then invalid_arg "Rrr.window_limited: rwnd < 1";
  Float.min (window ~level ~loss_rate) (float_of_int rwnd)

let bandwidth_bps ~level ~mss ~rtt ~loss_rate =
  if mss <= 0 then invalid_arg "Rrr.bandwidth_bps: mss <= 0";
  if rtt <= 0.0 then invalid_arg "Rrr.bandwidth_bps: rtt <= 0";
  window ~level ~loss_rate *. float_of_int (8 * mss) /. rtt
