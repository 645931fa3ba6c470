(* The event store is the unit of the simulation hot path, so its
   representation is tuned hard. Events are not records: they are slots
   in a struct-of-arrays arena owned by the engine, and every per-event
   word is an immediate int.

   - The firing time is the IEEE-754 bit pattern of the float,
     recentred into the native 63-bit int range ([bits_of_time]). For
     non-negative times the mapping is exact and order-isomorphic, so
     the queue compares and stores plain ints — no boxed float per
     event.
   - A handle is an int packing (generation, slot). Slots are recycled
     through a free list the moment an event fires or a cancelled
     event drains; the generation check makes a stale handle's
     [cancel] a no-op instead of a misfire. Everything recycles — a
     steady-state run allocates nothing per event, and an engine
     holding 100k pending events costs six flat arrays rather than
     100k heap records for the GC to trace and promote.
   - The queue is an ns-2-style calendar queue (Brown 1988) that is
     intrusive over the arena: bucket chains and the free list thread
     through the [qnext] array. *)

type handle = int

let no_slot = -1

(* Handle layout: (gen land gen_mask) lsl slot_bits lor slot. *)
let slot_bits = 31

let slot_mask = (1 lsl slot_bits) - 1

let gen_mask = (1 lsl 31) - 1

(* Meta layout: gen lsl 2 lor state; states below. *)
let state_mask = 3

let pending_tag = 0

let cancelled_tag = 2

let nop () = ()

(* -- the time encoding --

   For a non-negative IEEE-754 double, the bit pattern read as an
   unsigned 64-bit integer is a monotone function of the value (sign
   bit clear, biased exponent then mantissa in descending
   significance). Subtracting 2^62 recentres the unsigned range
   [0, 2^63) onto the signed native-int range [-2^62, 2^62), which
   [Int64.to_int]'s 63-bit truncation then preserves exactly — without
   the recentring, any time >= 2.0 sets bit 62 and truncation flips
   the sign, breaking the ordering. The [Int64] chains compile
   allocation-free (unboxed externals). The truncation also drops the
   sign bit, so [-x] encodes like [x], and every NaN lands above
   [+infinity]: the float entry points validate before encoding, and
   the bits entry point refuses anything past [infinity_bits].

   The engine owns this encoding, and its hot paths call it only
   in-module: the dev profile compiles every module [-opaque], so a
   float passed to or returned from another module's function is
   boxed and cross-module [@inline] does nothing. *)

let bias = 0x4000_0000_0000_0000L

let[@inline always] bits_of_time (t : float) =
  Int64.to_int (Int64.sub (Int64.bits_of_float t) bias)

let[@inline always] time_of_bits (bits : int) =
  Int64.float_of_bits (Int64.add (Int64.of_int bits) bias)

let infinity_bits = bits_of_time infinity

type cal = {
  mutable buckets : int array;
  mutable tails : int array;
  mutable cmask : int;
  mutable width : float;
  mutable inv_width : float;
  mutable csize : int;
  (* Search position: [last_time_bits] is a lower bound on the minimum
     timestamp present and [cur_vbucket] its bucket year. *)
  mutable cur_vbucket : int;
  mutable last_time_bits : int;
  (* Monotone upper bound on every timestamp ever enqueued; with
     [last_time_bits] it bounds the occupied bucket-year span, which
     caps how far the table is worth growing. *)
  mutable max_time_bits : int;
  (* Size at which the next grow attempt triggers; doubles as a
     backoff when the span cap refuses further growth, so a fill with
     few distinct timestamps does not re-attempt on every push. *)
  mutable grow_at : int;
}

type t = {
  (* Parallel per-slot arrays; [cap] is their common length and slots
     [0, high) have been handed out at least once. *)
  mutable fire : (unit -> unit) array;
  mutable meta : int array;
  mutable time_bits : int array;
  mutable qseq : int array;
  mutable vbucket : int array;
  (* Calendar chain link, and the free-list link while a slot is
     parked: a slot is never simultaneously queued and free. *)
  mutable qnext : int array;
  mutable cap : int;
  mutable high : int;
  mutable free_head : int;
  queue : cal;
  mutable clock_bits : int;
  mutable stopped : bool;
  (* Live (non-cancelled, non-fired) events, so [pending] and callers
     are not fooled by lazily-deleted cancellations still queued. *)
  mutable live : int;
  mutable next_seq : int;
}

(* Slot [a] fires before slot [b]: strictly earlier time, or same time
   and earlier insertion — the stable-FIFO contract. *)
let[@inline always] before t a b =
  let tb = t.time_bits in
  let ta = Array.unsafe_get tb a and tbb = Array.unsafe_get tb b in
  ta < tbb
  || (ta = tbb && Array.unsafe_get t.qseq a < Array.unsafe_get t.qseq b)

(* -- arena -- *)

let initial_cap = 64

let grow_arena t =
  let cap = 2 * t.cap in
  let fire = Array.make cap nop in
  Array.blit t.fire 0 fire 0 t.cap;
  let copy a =
    let fresh = Array.make cap 0 in
    Array.blit a 0 fresh 0 t.cap;
    fresh
  in
  t.fire <- fire;
  t.meta <- copy t.meta;
  t.time_bits <- copy t.time_bits;
  t.qseq <- copy t.qseq;
  t.vbucket <- copy t.vbucket;
  t.qnext <- copy t.qnext;
  t.cap <- cap

let[@inline] alloc_slot t =
  let s = t.free_head in
  if s >= 0 then begin
    t.free_head <- Array.unsafe_get t.qnext s;
    s
  end
  else begin
    if t.high = t.cap then grow_arena t;
    let s = t.high in
    t.high <- s + 1;
    s
  end

(* Bump the generation so stale handles to this slot die, drop the
   closure reference, park on the free list. Setting the low state
   bits before the increment both carries into the generation field
   and leaves the fresh state at zero (= pending). *)
let[@inline] free_slot t s =
  Array.unsafe_set t.fire s nop;
  Array.unsafe_set t.meta s ((Array.unsafe_get t.meta s lor state_mask) + 1);
  Array.unsafe_set t.qnext s t.free_head;
  t.free_head <- s

(* -- calendar queue (ns-2 style) with chains through the arena --

   An array of bucket "days" that the search position sweeps
   cyclically, each bucket holding the (time, seq)-sorted chain of the
   slots whose timestamps fall into any "year" of that day. Year
   bookkeeping is in integers ([vbucket] = trunc (time / width),
   recomputed on every width change), never by accumulating float
   bucket tops, so boundary roundoff cannot reorder events. Each chain
   keeps a tail pointer, so the common insert is an O(1) append and
   bursts of equal-timestamp events stay linear. The table grows 4x
   when the population outruns it and shrinks after an 8x drop,
   keeping its width, so a fill/drain cycle rebuilds it a handful of
   times rather than at every doubling. *)

let min_buckets = 8

let cal_create () =
  {
    buckets = Array.make min_buckets no_slot;
    tails = Array.make min_buckets no_slot;
    cmask = min_buckets - 1;
    width = 1.0;
    inv_width = 1.0;
    csize = 0;
    cur_vbucket = 0;
    last_time_bits = bits_of_time 0.0;
    max_time_bits = bits_of_time 0.0;
    grow_at = 2 * min_buckets;
  }

let[@inline always] vbucket_of c time = int_of_float (time *. c.inv_width)

(* Insert into the sorted chain of the slot's bucket; the common case
   is an O(1) tail append. *)
let[@inline] cal_insert t c s =
  let i = Array.unsafe_get t.vbucket s land c.cmask in
  let tail = Array.unsafe_get c.tails i in
  let qnext = t.qnext in
  if tail = no_slot then begin
    Array.unsafe_set qnext s no_slot;
    Array.unsafe_set c.buckets i s;
    Array.unsafe_set c.tails i s
  end
  else if before t tail s then begin
    Array.unsafe_set qnext s no_slot;
    Array.unsafe_set qnext tail s;
    Array.unsafe_set c.tails i s
  end
  else begin
    let head = Array.unsafe_get c.buckets i in
    if before t s head then begin
      Array.unsafe_set qnext s head;
      Array.unsafe_set c.buckets i s
    end
    else begin
      (* s is after head and before tail: lands strictly inside, tail
         pointer untouched. (While-loop, not a local recursive
         function: the non-flambda backend heap-allocates a closure
         per call for the latter, and this is the hot path.) *)
      let prev = ref head in
      let n = ref (Array.unsafe_get qnext head) in
      while !n <> no_slot && before t !n s do
        prev := !n;
        n := Array.unsafe_get qnext !n
      done;
      Array.unsafe_set qnext s !n;
      Array.unsafe_set qnext !prev s
    end
  end

(* Width adaptation: a global average gap, then the observed density
   within ~64 global-gap units of the minimum. The estimate scans a
   bounded PREFIX of the chains: pop order is fixed by (time, seq)
   regardless of bucket layout, so width only affects speed and a
   sample is plenty — full passes over a 100k-entry chain were the
   dominant rebuild cost. The chain is bucket-ordered, so a prefix
   mixes bucket residues rather than favouring early timestamps. *)
let width_sample = 2048

(* Iterate up to [width_sample] queued slots (bucket by bucket) calling
   [f slot]. The traversal order mixes bucket residues, so the sample
   is not biased toward early timestamps. *)
let cal_iter_sample t c f =
  let budget = ref width_sample in
  let b = ref 0 in
  while !budget > 0 && !b <= c.cmask do
    let s = ref c.buckets.(!b) in
    while !budget > 0 && !s <> no_slot do
      f !s;
      decr budget;
      s := t.qnext.(!s)
    done;
    incr b
  done

(* The float registers of [cal_estimate]. An all-float record is stored
   flat, so writing a field boxes nothing, where a float ref captured
   by the sampling closure would box every sampled time. *)
type sample_registers = {
  mutable lo : float;
  mutable hi : float;
  mutable prev : float;
  mutable min_gap : float;
  mutable wide : float;
}

(* Estimate a bucket width from a bounded sample, and report whether
   the population is duplicate-heavy. Two regimes:

   - Duplicate-heavy (>= 75% of sampled entries repeat an already-seen
     timestamp): chains of same-time events are long, so the quantity
     that matters is distinct timestamps per bucket, not events per
     bucket — two distinct times sharing a bucket turn every push into
     an O(chain) interior insert. Pick half the smallest adjacent
     distinct gap so each timestamp gets its own bucket, and tell the
     caller to cap table growth by the occupied span (more buckets
     than the span just add cache-hostile empty space).
   - Otherwise the classic ns-2 rule: 3x the mean gap over a local
     density window, uncapped. This is the continuous-timestamp case
     the calendar queue was designed for.

   Returns [(width, duplicate_heavy)]. *)
let cal_estimate t c =
  (* Same-time events are adjacent in the iteration order (chains are
     sorted by (time, seq) and one timestamp never spans two buckets),
     so a single previous-entry register dedupes and yields adjacent
     distinct gaps. Carried across buckets: negative cross-bucket or
     cross-year jumps are skipped for the gap but still break runs. *)
  let r =
    {
      lo = infinity;
      hi = neg_infinity;
      prev = neg_infinity;
      min_gap = infinity;
      wide = 0.0;
    }
  in
  let n = ref 0 and distinct = ref 0 in
  cal_iter_sample t c (fun s ->
      let time = time_of_bits t.time_bits.(s) in
      if time < r.lo then r.lo <- time;
      if time > r.hi then r.hi <- time;
      if time <> r.prev then begin
        incr distinct;
        let gap = time -. r.prev in
        if r.prev > neg_infinity && gap > 0.0 && gap < r.min_gap then
          r.min_gap <- gap
      end;
      r.prev <- time;
      incr n);
  if !n < 2 || r.hi <= r.lo then (c.width, false)
  else if
    4 * !distinct <= !n
    && !distinct >= 2
    && r.min_gap > 0.0
    && r.min_gap < infinity
  then (0.5 *. r.min_gap, true)
  else begin
    let global_gap = (r.hi -. r.lo) /. float_of_int (!n - 1) in
    let window = r.lo +. (64.0 *. global_gap) in
    let in_window = ref 0 in
    r.wide <- r.lo;
    cal_iter_sample t c (fun s ->
        let time = time_of_bits t.time_bits.(s) in
        if time <= window then begin
          incr in_window;
          if time > r.wide then r.wide <- time
        end);
    let span = r.wide -. r.lo in
    if span > 0.0 && !in_window >= 2 then
      (3.0 *. span /. float_of_int (!in_window - 1), false)
    else (3.0 *. global_gap, false)
  end

(* Next power of two >= n (n >= 1). *)
let pow2_at_least n =
  let p = ref min_buckets in
  while !p < n do
    p := !p * 2
  done;
  !p

(* Resize to [nbuckets], optionally re-estimating the width first.
   Pop order never depends on bucket layout, so the width policy is
   free to trade estimation fidelity for rebuild cost:

   - If the fresh estimate lands within a small band of the current
     width, keep the current width. Stored [vbucket] values then stay
     valid, and when the table is growing, each old bucket splits into
     disjoint new buckets, so the whole rebuild is a blind tail-append
     pass — no float decode, no comparisons. This is the common case
     once the width has converged, and it is what keeps large grows
     from dominating the push path.
   - Otherwise recompute every slot's virtual bucket and sorted-insert
     (also the shrink-with-merge case, where two old chains can land
     in one new bucket and must interleave). *)
let cal_rebuild t c ~nbuckets ~keep_width =
  let old_buckets = c.buckets in
  let old_n = c.cmask + 1 in
  c.buckets <- Array.make nbuckets no_slot;
  c.tails <- Array.make nbuckets no_slot;
  c.cmask <- nbuckets - 1;
  c.cur_vbucket <- vbucket_of c (time_of_bits c.last_time_bits);
  if keep_width && nbuckets >= old_n then begin
    let buckets = c.buckets and tails = c.tails and qnext = t.qnext in
    let vbucket = t.vbucket in
    for b = 0 to old_n - 1 do
      let cursor = ref old_buckets.(b) in
      while !cursor <> no_slot do
        let s = !cursor in
        cursor := Array.unsafe_get qnext s;
        let i = Array.unsafe_get vbucket s land c.cmask in
        let tail = Array.unsafe_get tails i in
        if tail = no_slot then Array.unsafe_set buckets i s
        else Array.unsafe_set qnext tail s;
        Array.unsafe_set tails i s;
        Array.unsafe_set qnext s no_slot
      done
    done
  end
  else
    for b = 0 to old_n - 1 do
      let cursor = ref old_buckets.(b) in
      while !cursor <> no_slot do
        let s = !cursor in
        cursor := t.qnext.(s);
        if not keep_width then
          t.vbucket.(s) <- vbucket_of c (time_of_bits t.time_bits.(s));
        cal_insert t c s
      done
    done

(* Grow (or, in the duplicate-heavy regime, right-size) the table.
   The width is decided FIRST and the span cap derived from that same
   width — deriving the cap from the old width and then re-estimating
   inside the rebuild lets the span outgrow the capped table, which
   forces distinct timestamps to share buckets and turns pushes into
   O(chain) walks. When the cap refuses growth, back off to the next
   doubling of [csize] so re-attempts stay amortized, not per-push. *)
let cal_grow t c =
  let w, dup_heavy = cal_estimate t c in
  let keep = w >= 0.8 *. c.width && w <= 1.25 *. c.width in
  let old_n = c.cmask + 1 in
  let target =
    if dup_heavy then begin
      let span =
        (time_of_bits c.max_time_bits -. time_of_bits c.last_time_bits) /. w
      in
      if span <= 1e6 then
        min (4 * old_n) (pow2_at_least (2 * (int_of_float span + 1)))
      else 4 * old_n
    end
    else 4 * old_n
  in
  if target > old_n || (dup_heavy && not keep) then begin
    if not keep then begin
      c.width <- w;
      c.inv_width <- 1.0 /. w
    end;
    cal_rebuild t c ~nbuckets:(max min_buckets target) ~keep_width:keep;
    c.grow_at <-
      (if (not dup_heavy) && target = 4 * old_n then 2 * target
       else 2 * c.csize)
  end
  else c.grow_at <- 2 * c.csize

let[@inline] cal_push t c s =
  let bits = Array.unsafe_get t.time_bits s in
  let vb = vbucket_of c (time_of_bits bits) in
  Array.unsafe_set t.vbucket s vb;
  cal_insert t c s;
  c.csize <- c.csize + 1;
  if bits < c.last_time_bits then begin
    c.last_time_bits <- bits;
    c.cur_vbucket <- vb
  end;
  if bits > c.max_time_bits then c.max_time_bits <- bits;
  if c.csize > c.grow_at then cal_grow t c

(* Locate the minimum entry: sweep bucket years from the current
   position; a bucket's head is in year [vb] exactly when its
   precomputed [vbucket] equals [vb]. A fruitless full round means
   everything is far in the future — find the earliest head directly
   and jump the search position there. *)
let[@inline] cal_find_min t c =
  let nbuckets = c.cmask + 1 in
  let buckets = c.buckets and vbucket = t.vbucket in
  let found = ref no_slot in
  let vb = ref c.cur_vbucket in
  let step = ref 0 in
  while !found = no_slot && !step < nbuckets do
    let head = Array.unsafe_get buckets (!vb land c.cmask) in
    if head <> no_slot && Array.unsafe_get vbucket head = !vb then
      found := head
    else begin
      incr step;
      incr vb
    end
  done;
  let h = !found in
  if h <> no_slot then begin
    c.cur_vbucket <- !vb;
    c.last_time_bits <- Array.unsafe_get t.time_bits h;
    h
  end
  else begin
    (* Fruitless full round: everything is far in the future. Find the
       earliest head directly and jump the search position there. *)
    let best = ref no_slot in
    for i = 0 to c.cmask do
      let h = Array.unsafe_get buckets i in
      if h <> no_slot && (!best = no_slot || before t h !best) then best := h
    done;
    let h = !best in
    assert (h <> no_slot);
    c.cur_vbucket <- Array.unsafe_get vbucket h;
    c.last_time_bits <- Array.unsafe_get t.time_bits h;
    h
  end

let[@inline] cal_remove_min t c s =
  let i = Array.unsafe_get t.vbucket s land c.cmask in
  let next = Array.unsafe_get t.qnext s in
  Array.unsafe_set c.buckets i next;
  if next = no_slot then Array.unsafe_set c.tails i no_slot;
  c.csize <- c.csize - 1;
  let nbuckets = c.cmask + 1 in
  if nbuckets > min_buckets && c.csize < nbuckets / 8 then begin
    (* Keep the width: a draining queue thins out, but the spacing of
       what remains was estimated from the same population. *)
    let fresh = pow2_at_least (2 * c.csize) in
    cal_rebuild t c ~nbuckets:fresh ~keep_width:true;
    c.grow_at <- 2 * fresh
  end

let cal_pop_if_before t c ~limit_bits =
  if c.csize = 0 then no_slot
  else begin
    let s = cal_find_min t c in
    if Array.unsafe_get t.time_bits s > limit_bits then no_slot
    else begin
      cal_remove_min t c s;
      s
    end
  end

(* -- the engine proper -- *)

let create () =
  {
    fire = Array.make initial_cap nop;
    meta = Array.make initial_cap 0;
    time_bits = Array.make initial_cap 0;
    qseq = Array.make initial_cap 0;
    vbucket = Array.make initial_cap 0;
    qnext = Array.make initial_cap no_slot;
    cap = initial_cap;
    high = 0;
    free_head = no_slot;
    queue = cal_create ();
    clock_bits = bits_of_time 0.0;
    stopped = false;
    live = 0;
    next_seq = 0;
  }

let now t = time_of_bits t.clock_bits

let now_bits t = t.clock_bits

(* Claim a slot, arm it as pending (generation preserved) at the time
   whose encoding is [bits], and enqueue it. Taking the already-encoded
   time keeps the whole schedule path free of float values that would
   otherwise be boxed at each internal call boundary. *)
let[@inline] arm t bits fire =
  let s = alloc_slot t in
  Array.unsafe_set t.fire s fire;
  Array.unsafe_set t.time_bits s bits;
  Array.unsafe_set t.qseq s t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  cal_push t t.queue s;
  s

(* Validate and encode a firing time. The [time >= 0.0] guard also
   excludes NaN; the bit encoding is only meaningful for non-negative
   times. *)
let[@inline] checked_bits t time =
  let bits = bits_of_time time in
  if not (time >= 0.0) || bits < t.clock_bits then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
         (now t));
  bits

let[@inline] pack_handle t s =
  ((Array.unsafe_get t.meta s lsr 2) land gen_mask) lsl slot_bits lor s

let schedule_at t ~time fire = pack_handle t (arm t (checked_bits t time) fire)

let schedule_after t ~delay fire =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  let time = now t +. delay in
  pack_handle t (arm t (checked_bits t time) fire)

let schedule_unit_at t ~time fire =
  ignore (arm t (checked_bits t time) fire : int)

(* An encoding past [infinity_bits] is a NaN; one below the clock is in
   the past. Callers encode [now + d] themselves, so this test is all
   that stands between a NaN delay and the queue. *)
let schedule_unit_at_bits t ~bits fire =
  if bits < t.clock_bits || bits > infinity_bits then
    invalid_arg
      (Printf.sprintf "Engine.schedule_unit_at_bits: time %g is NaN or before now %g"
         (time_of_bits bits) (now t));
  ignore (arm t bits fire : int)

let bits_after t ~delay =
  if not (delay >= 0.0) then
    invalid_arg "Engine.bits_after: delay is negative or NaN";
  bits_of_time (now t +. delay)

let schedule_unit t ~delay fire =
  if delay < 0.0 then invalid_arg "Engine.schedule_unit: negative delay";
  let time = now t +. delay in
  ignore (arm t (checked_bits t time) fire : int)

let cancel t handle =
  let s = handle land slot_mask in
  if s < t.high then begin
    let meta = Array.unsafe_get t.meta s in
    if
      meta land state_mask = pending_tag
      && (meta lsr 2) land gen_mask = handle lsr slot_bits
    then begin
      (* Lazy delete: mark it dead and let the queue drain it; the
         slot recycles (and the generation bumps) at that point. *)
      Array.unsafe_set t.meta s
        ((meta land lnot state_mask) lor cancelled_tag);
      t.live <- t.live - 1
    end
  end

let pending t = t.live

let scheduled t = t.next_seq

(* Fire (or silently drain, if cancelled) a slot popped from the
   queue. The slot is released before the callback runs so the
   callback's own scheduling reuses it immediately. *)
let[@inline] fire_slot t s =
  if Array.unsafe_get t.meta s land state_mask = pending_tag then begin
    t.live <- t.live - 1;
    t.clock_bits <- Array.unsafe_get t.time_bits s;
    let fire = Array.unsafe_get t.fire s in
    free_slot t s;
    fire ()
  end
  else free_slot t s

(* The drain loop is a direct allocation-free pop per event. *)
let drain t ~limit_bits =
  let q = t.queue in
  let rec loop () =
    if not t.stopped then begin
      let s = cal_pop_if_before t q ~limit_bits in
      if s <> no_slot then begin
        fire_slot t s;
        loop ()
      end
    end
  in
  loop ()

let run t =
  t.stopped <- false;
  drain t ~limit_bits:infinity_bits

(* The bit encoding is monotone only for non-negative times: NaN would
   never bound the drain, and -T would stand for +T. *)
let run_until t ~time =
  if not (time >= 0.0) then
    invalid_arg
      (Printf.sprintf "Engine.run_until: time %g is negative or NaN" time);
  t.stopped <- false;
  let limit_bits = bits_of_time time in
  drain t ~limit_bits;
  (* A stop mid-run leaves the clock at the last fired event; advancing
     it to [time] anyway would fabricate an idle period that never ran. *)
  if (not t.stopped) && limit_bits > t.clock_bits then
    t.clock_bits <- limit_bits

let stop t = t.stopped <- true
