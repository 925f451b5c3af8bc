"""Reference routes that only the tests use, kept out of the package."""

from pm25cast.data import _write_columns


def write_frame_csv(frame, path):
    """A ModelFrame as `date,lpm,trg,t,w,pc,ep,id`, one row per day."""
    _write_columns(
        path,
        ["date", "lpm", "trg", "t", "w", "pc", "ep", "id"],
        [frame.dates, frame.lpm, frame.trg, frame.t, frame.w, frame.pc, frame.ep,
         frame.id.astype(int)],
    )
