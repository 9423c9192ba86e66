let write path contents =
  let tmp = path ^ ".tmp" in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc contents);
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
