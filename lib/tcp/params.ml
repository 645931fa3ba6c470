type t = {
  mss : int;
  ack_size : int;
  initial_cwnd : float;
  initial_ssthresh : float;
  rwnd : int;
  max_burst : int;
  dupack_threshold : int;
  min_rto : float;
  max_rto : float;
  initial_rto : float;
  smooth_start : bool;
  limited_transmit : bool;
  rto_estimator : Rto.estimator;
  rrr_level : float;
}

let default =
  {
    mss = 1000;
    ack_size = 40;
    initial_cwnd = 1.0;
    initial_ssthresh = 64.0;
    rwnd = 10_000;
    max_burst = 4;
    dupack_threshold = 3;
    min_rto = 1.0;
    max_rto = 64.0;
    initial_rto = 3.0;
    smooth_start = false;
    limited_transmit = false;
    rto_estimator = Rto.Jacobson;
    rrr_level = 0.5;
  }

let validate t =
  if t.mss <= 0 then invalid_arg "Params: mss <= 0";
  if t.ack_size <= 0 then invalid_arg "Params: ack_size <= 0";
  if t.initial_cwnd < 1.0 then invalid_arg "Params: initial_cwnd < 1";
  if t.initial_ssthresh < 2.0 then invalid_arg "Params: initial_ssthresh < 2";
  if t.rwnd < 1 then invalid_arg "Params: rwnd < 1";
  if t.max_burst < 0 then invalid_arg "Params: max_burst < 0";
  if t.dupack_threshold < 1 then invalid_arg "Params: dupack_threshold < 1";
  if t.min_rto <= 0.0 || t.max_rto < t.min_rto then
    invalid_arg "Params: need 0 < min_rto <= max_rto";
  if t.initial_rto < t.min_rto then invalid_arg "Params: initial_rto < min_rto";
  if t.initial_rto > t.max_rto then invalid_arg "Params: initial_rto > max_rto";
  if not (t.rrr_level > 0.0 && t.rrr_level < 1.0) then
    invalid_arg "Params: rrr_level out of (0, 1)"
