(** Public facade of the Robust-Recovery reproduction.

    [Core.Rr] is the paper's contribution; [Core.Variant] selects among
    RR and the baseline TCPs; the substrate libraries are re-exported so
    downstream code can depend on [core] alone:

    {[
      let engine = Core.Sim.Engine.create () in
      let agent, _handle =
        Core.Rr.create ~engine ~params:Core.Tcp.Params.default ~flow:0
          ~emit ~ablation:Core.Rr.paper_design ()
      in
      ...
    ]} *)

module Rr = Rr
module Variant = Variant
module Sim = Sim
module Net = Net
module Tcp = Tcp
