"""Roundtrips and validation for the on-disk formats."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evimatch import io
from evimatch.datagen import LFDSample, make_lfd_dataset, make_scene
from evimatch.events import (EventStream, accumulate_mask, load_events,
                             save_events)
from evimatch.extractor import (ExtractorConfig, KeypointSet, init_student,
                                load_extractor, save_extractor)
from evimatch.geometry import CameraIntrinsics, RigidPose, rotation_about
from evimatch.matching import Assignment
from evimatch.optim import CKPT_MAGIC, load_checkpoint, save_checkpoint
from evimatch.representations import KINDS, build_representation

RNG = np.random.default_rng(7)


def quantized_image(h, w, rng=RNG):
    return np.round(rng.uniform(size=(h, w)) * 255) / 255.0


# -- graymaps ---------------------------------------------------------------

def test_pgm_roundtrip_exact_on_quantized_values(tmp_path):
    img = quantized_image(6, 9)
    p = tmp_path / "a.pgm"
    io.save_pgm(p, img)
    np.testing.assert_array_equal(io.load_pgm(p), img)


def test_pgm_validation(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        io.save_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        io.save_pgm(tmp_path / "x.pgm", np.full((2, 2), 1.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_rejects_a_non_finite_pixel(tmp_path, bad):
    # NaN compares False both ways: it used to be written as 0
    img = quantized_image(3, 4)
    img[1, 2] = bad
    p = tmp_path / "x.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^image values must be finite and lie in \[0, 1\]$"):
            io.save_pgm(p, img)
    assert not p.exists()


def test_pgm_reader_errors(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P4\n1 1\n255\n\x00")
    with pytest.raises(ValueError, match="not a binary PGM"):
        io.load_pgm(p)
    p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ValueError, match="maxval 255"):
        io.load_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(ValueError, match="truncated pixel"):
        io.load_pgm(p)


def test_pgm_header_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment line\n2 1\n255\n\x00\xff")
    np.testing.assert_array_equal(io.load_pgm(p), [[0.0, 1.0]])


def test_ppm_roundtrip(tmp_path):
    rgb = RNG.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
    p = tmp_path / "a.ppm"
    io.save_ppm(p, rgb)
    raw = p.read_bytes()
    assert raw[:11] == b"P6\n5 4\n255\n"
    np.testing.assert_array_equal(
        np.frombuffer(raw[11:], dtype=np.uint8).reshape(4, 5, 3), rgb)


def test_ppm_shape_validation(tmp_path):
    with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
        io.save_ppm(tmp_path / "x.ppm", np.zeros((4, 5), dtype=np.uint8))


# -- depth --------------------------------------------------------------------

def test_depth_roundtrip(tmp_path):
    d = RNG.uniform(0.5, 9.0, size=(3, 7)).astype(np.float32)
    p = tmp_path / "d.f32"
    io.save_depth(p, d)
    np.testing.assert_array_equal(io.load_depth(p, 7, 3), d.astype(np.float64))


def test_depth_size_check(tmp_path):
    p = tmp_path / "d.f32"
    io.save_depth(p, np.zeros((3, 7)))
    with pytest.raises(ValueError, match="expected 96 bytes"):
        io.load_depth(p, 6, 4)


# -- keypoints and matches --------------------------------------------------

def random_keypoints(k=5, c=8):
    desc = RNG.standard_normal((k, c)).astype(np.float32)
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    return KeypointSet(RNG.uniform(0, 30, size=(k, 2)),
                       desc, RNG.uniform(size=k).astype(np.float32))


def test_keypoints_roundtrip(tmp_path):
    kp = random_keypoints()
    p = tmp_path / "kp.txt"
    io.save_keypoints(p, kp)
    back = io.load_keypoints(p)
    np.testing.assert_array_equal(back.positions, kp.positions)
    np.testing.assert_array_equal(back.descriptors, kp.descriptors)
    # scores pass through a float repr; float32 -> float64 -> float32 is exact
    np.testing.assert_array_equal(back.scores, kp.scores)


def test_keypoints_empty_roundtrip(tmp_path):
    kp = KeypointSet(np.zeros((0, 2)), np.zeros((0, 4), np.float32),
                     np.zeros(0, np.float32))
    p = tmp_path / "kp.txt"
    io.save_keypoints(p, kp)
    back = io.load_keypoints(p)
    assert len(back.positions) == 0 and back.descriptors.shape == (0, 4)


def test_keypoints_errors(tmp_path):
    p = tmp_path / "kp.txt"
    io.save_keypoints(p, random_keypoints(k=3))
    p.write_text("1.0 2.0\n")
    with pytest.raises(ValueError, match="expected `x y score`"):
        io.load_keypoints(p)
    p.write_text("1.0 2.0 0.5\n")  # one keypoint, sidecar still has three
    with pytest.raises(ValueError, match="3 descriptors for 1 keypoints"):
        io.load_keypoints(p)
    side = tmp_path / "kp.txt.desc"
    side.write_bytes(b"nope")
    with pytest.raises(ValueError, match="not a descriptor sidecar"):
        io.load_keypoints(p)


def test_matches_roundtrip(tmp_path):
    # one `i j score` line per match; scores keep every digit
    a = Assignment(np.array([[0, 2], [1, 0], [3, 1]]),
                   np.array([0.9, 0.31, 1 / 3]))
    p = tmp_path / "m.txt"
    io.save_matches(p, a)
    back = np.loadtxt(p, ndmin=2)
    np.testing.assert_array_equal(back[:, :2], a.matches)
    np.testing.assert_array_equal(back[:, 2], a.scores)
    io.save_matches(p, Assignment.empty())
    assert p.read_text() == ""


# -- poses, intrinsics, configs -----------------------------------------------

def test_poses_roundtrip(tmp_path):
    poses = [RigidPose(rotation_about([0.0, 1.0, 0.0], np.radians(d)),
                       [0.1 * d, -0.2, 3.0]) for d in (0.0, 12.0, 170.0)]
    p = tmp_path / "poses.txt"
    io.save_poses(p, [0, 33000, 66000], poses)
    times, back = io.load_poses(p)
    assert times == [0, 33000, 66000]
    for orig, got in zip(poses, back):
        np.testing.assert_allclose(got.rotation, orig.rotation, atol=1e-12)
        np.testing.assert_allclose(got.translation, orig.translation, atol=1e-15)


def test_poses_malformed_line(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text("0 1 2 3\n")
    with pytest.raises(ValueError, match="expected `t_us tx ty tz"):
        io.load_poses(p)


def test_intrinsics_roundtrip(tmp_path):
    intr = CameraIntrinsics(fx=121.25, fy=119.5, cx=63.5, cy=47.5)
    p = tmp_path / "intr.txt"
    io.save_intrinsics(p, intr, 128, 96)
    back, w, h = io.load_intrinsics(p)
    assert back == intr and (w, h) == (128, 96)


def test_intrinsics_accepts_numpy_scalars(tmp_path):
    # field values may arrive as numpy float64; the text must stay parseable
    intr = CameraIntrinsics(fx=np.float64(25.6), fy=np.float64(25.6),
                            cx=np.float64(15.5), cy=np.float64(15.5))
    p = tmp_path / "intr.txt"
    io.save_intrinsics(p, intr, 32, 32)
    back, _, _ = io.load_intrinsics(p)
    assert back.fx == 25.6 and back.cy == 15.5


def test_poses_accept_numpy_translation(tmp_path):
    pose = RigidPose(np.eye(3), np.array([0.1, 0.2, 0.3]))
    p = tmp_path / "poses.txt"
    io.save_poses(p, [0], [pose])
    _, back = io.load_poses(p)
    np.testing.assert_allclose(back[0].translation, [0.1, 0.2, 0.3])


def test_intrinsics_missing_key(tmp_path):
    p = tmp_path / "intr.txt"
    p.write_text("fx=1.0\nfy=1.0\ncx=0.5\n")
    with pytest.raises(ValueError, match="missing intrinsics key"):
        io.load_intrinsics(p)


def test_config_roundtrip_and_sorted():
    values = {"zeta": "9", "alpha": "0.25", "mid": "hello"}
    text = io.format_config(values)
    assert text == "alpha=0.25\nmid=hello\nzeta=9\n"
    assert io.parse_config(text) == values


def test_config_parse_skips_comments_and_blanks():
    parsed = io.parse_config("# note\n\n a = 1 \n")
    assert parsed == {"a": "1"}
    with pytest.raises(ValueError, match="expected key=value"):
        io.parse_config("just words\n", path="p.cfg")


# -- dataset directories -------------------------------------------------------

def tiny_sample(t, seed):
    rng = np.random.default_rng(seed)
    n = 12
    ts = np.sort(rng.uniform(t - 0.05, t, n))
    ts = np.round(ts * 1e6) / 1e6  # storage keeps microsecond stamps
    events = EventStream(rng.integers(0, 8, n), rng.integers(0, 6, n), ts,
                         rng.choice([-1, 1], n), 8, 6)
    image = np.round(rng.uniform(size=(6, 8)) * 255) / 255.0
    depth = rng.uniform(1.0, 5.0, size=(6, 8)).astype(np.float32)
    pose = RigidPose(rotation_about([0, 0, 1.0], 0.1 * seed), [0.0, 0.1, 2.0])
    return LFDSample(t, events, image, depth, pose)


def test_dataset_roundtrip(tmp_path):
    samples = [tiny_sample(0.25, 1), tiny_sample(0.5, 2)]
    intr = CameraIntrinsics(fx=6.4, fy=6.4, cx=3.5, cy=2.5)
    root = tmp_path / "ds"
    io.save_dataset(root, samples, intr, 8, 6)
    back, intr2, w, h = io.load_dataset(root)
    assert intr2 == intr and (w, h) == (8, 6)
    assert len(back) == 2
    for orig, got in zip(samples, back):
        assert got.t == pytest.approx(orig.t, abs=1e-9)
        np.testing.assert_array_equal(got.events.xs, orig.events.xs)
        np.testing.assert_allclose(got.events.ts, orig.events.ts, atol=1e-9)
        np.testing.assert_array_equal(got.image, orig.image)
        np.testing.assert_array_equal(got.depth, orig.depth.astype(np.float64))
        np.testing.assert_allclose(got.pose.rotation, orig.pose.rotation,
                                   atol=1e-12)


@pytest.fixture(scope="module")
def simulated_roundtrip(tmp_path_factory):
    """Simulated samples and the same samples saved and loaded back."""
    scene = make_scene(0, width=32, height=32)
    samples = make_lfd_dataset(scene, 4)
    root = tmp_path_factory.mktemp("sim") / "ds"
    io.save_dataset(root, samples, scene.intrinsics, scene.width, scene.height)
    return samples, io.load_dataset(root)[0]


@pytest.mark.parametrize("tensor", [*KINDS, "mask"])
def test_event_tensors_from_disk_equal_those_from_memory(simulated_roundtrip, tensor):
    # the event window comes from the events alone, so every tensor built
    # from a reloaded stream has the bytes of the in-memory one
    def build(events):
        if tensor == "mask":
            return accumulate_mask(events)
        return build_representation(events, tensor)

    samples, back = simulated_roundtrip
    for s, b in zip(samples, back, strict=True):
        assert len(s.events) > 0
        assert build(b.events).tobytes() == build(s.events).tobytes()


def loaded_bytes(root):
    """load_dataset's result with every array as bytes, for equality."""
    samples, intr, w, h = io.load_dataset(root)
    return intr, w, h, [(s.t, *(a.tobytes() for a in (
        s.events.xs, s.events.ys, s.events.ts, s.events.ps, s.image, s.depth,
        s.pose.rotation, s.pose.translation))) for s in samples]


@pytest.mark.parametrize("manifest", ["250000\n500000\n", "999999\n25O000\n"],
                         ids=["times", "malformed"])
def test_dataset_ignores_a_stray_manifest(tmp_path, manifest):
    # sample times come from poses.txt alone; older datasets also carry a
    # manifest.txt of the same times, which loading ignores
    samples = [tiny_sample(0.25, 1), tiny_sample(0.5, 2)]
    for name in ("plain", "stray"):
        io.save_dataset(tmp_path / name, samples, CameraIntrinsics(6.4, 6.4, 3.5, 2.5),
                        8, 6)
    (tmp_path / "stray" / "manifest.txt").write_text(manifest)
    assert not (tmp_path / "plain" / "manifest.txt").exists()
    assert loaded_bytes(tmp_path / "stray") == loaded_bytes(tmp_path / "plain")


@pytest.mark.parametrize("name, write, size", [
    ("images/001.pgm", lambda p: io.save_pgm(p, quantized_image(3, 4)), "4x3"),
    ("events/000.evt", lambda p: save_events(p, EventStream(
        [0, 9], [0, 6], [0.1, 0.2], [1, -1], 10, 7)), "10x7"),
], ids=["image", "events"])
def test_dataset_rejects_a_frame_of_another_size(tmp_path, name, write, size):
    root = tmp_path / "ds"
    io.save_dataset(root, [tiny_sample(0.25, 1), tiny_sample(0.5, 2)],
                    CameraIntrinsics(6.4, 6.4, 3.5, 2.5), 8, 6)
    write(root / name)
    with pytest.raises(ValueError) as e:
        io.load_dataset(root)
    assert str(e.value) == (f"{root / name}: size {size} differs from the 8x6 "
                            "of intrinsics.txt")


def test_pairs_roundtrip(tmp_path):
    pairs = [(0, 1, 0.62), (2, 3, 0.41)]
    p = tmp_path / "pairs.txt"
    io.save_pairs(p, pairs)
    assert io.load_pairs(p) == pairs
    p.write_text("0 1\n")
    with pytest.raises(ValueError, match="expected `idx_events idx_image"):
        io.load_pairs(p)


# -- visualization ---------------------------------------------------------------

def test_match_image_geometry_and_colors():
    image_a = np.zeros((10, 12))
    image_b = np.zeros((10, 12))
    kp_a = random_keypoints(k=2, c=4)
    kp_b = random_keypoints(k=2, c=4)
    kp_a.positions[:] = [[2.0, 3.0], [8.0, 7.0]]
    kp_b.positions[:] = [[4.0, 3.0], [9.0, 8.0]]
    assignment = Assignment(np.array([[0, 0], [1, 1]]), np.array([0.9, 0.8]))
    img = io.make_match_image(image_a, image_b, kp_a, kp_b, assignment,
                              correct=[True, False])
    assert img.shape == (10, 12 + 8 + 12, 3)
    assert img.dtype == np.uint8
    colors = set(map(tuple, img.reshape(-1, 3).tolist()))
    assert {io.GREEN, io.RED, io.DOT} <= colors
    assert colors <= {io.GREEN, io.RED, io.DOT, (0, 0, 0)}


def test_match_image_keypointset_inputs_and_validation():
    kp = random_keypoints(k=2, c=4)
    kp.positions[:] = [[1.0, 1.0], [3.0, 2.0]]
    assignment = Assignment(np.array([[0, 1]]), np.array([1.0]))
    img = io.make_match_image(np.zeros((5, 6)), np.zeros((5, 6)), kp, kp,
                              assignment, correct=[False])
    assert img.shape == (5, 6 + 8 + 6, 3)
    with pytest.raises(ValueError, match="correctness flags"):
        io.make_match_image(np.zeros((5, 6)), np.zeros((5, 6)), kp, kp,
                            assignment, correct=[True, False])


# -- located errors ------------------------------------------------------------

@pytest.mark.parametrize("header, cause", [
    (b"P5\n-4 3\n255\n", "image size -4x3"),
    (b"P5\n0 4\n255\n", "image size 0x4"),
    (b"P5\n4 x\n255\n", "bad header"),
])
def test_pgm_header_values_are_checked(tmp_path, header, cause):
    p = tmp_path / "bad.pgm"
    p.write_bytes(header + bytes(12))
    with pytest.raises(ValueError, match=rf"bad\.pgm: {cause}"):
        io.load_pgm(p)


def test_short_descriptor_sidecar(tmp_path):
    p = tmp_path / "kp.txt"
    io.save_keypoints(p, random_keypoints(k=2))
    (tmp_path / "kp.txt.desc").write_bytes(io.DESC_MAGIC + b"\x02\x00")
    with pytest.raises(ValueError, match=r"kp\.txt\.desc: not a descriptor sidecar"):
        io.load_keypoints(p)


def test_checkpoint_name_must_be_utf8(tmp_path):
    p = tmp_path / "bad.ckpt"
    save_checkpoint(p, {"w": np.zeros(2, np.float32)})
    p.write_bytes(p.read_bytes().replace(b"\x01\x00\x00\x00w", b"\x01\x00\x00\x00\xff"))
    with pytest.raises(ValueError, match=r"bad\.ckpt: parameter name is not UTF-8"):
        load_checkpoint(p)


def test_checkpoint_empty_shape_with_overflowing_dims(tmp_path):
    # a zero dim leaves no data to read, but numpy still refuses the shape
    # when the dims before the zero overflow its index type
    dims = (2 ** 31, 2 ** 31, 2 ** 31, 0)
    p = tmp_path / "bad.ckpt"
    p.write_bytes(CKPT_MAGIC + struct.pack("<II", 1, 1) + b"w"
                  + struct.pack(f"<I{len(dims)}I", len(dims), *dims))
    with pytest.raises(ValueError, match=r"bad\.ckpt: parameter w has shape"):
        load_checkpoint(p)


@pytest.mark.parametrize("name, text, where", [
    ("pairs.txt", "0 1 0.5\n0 x 0.5\n", r"pairs\.txt:2: expected `idx_events"),
    ("pairs.txt", "# i j overlap\n0 1 0.5\n1 \xff 2\n", r"pairs\.txt:3: expected"),
    ("kp.txt", "1.0 2.0 0.5\n\n1.0 abc 0.5\n", r"kp\.txt:3: expected `x y score`"),
    ("poses.txt", "0 0 0 0 0 0 0 0\n", r"poses\.txt:1: expected `t_us tx"),
    ("poses.txt", "1.5 0 0 0 0 0 0 1\n", r"poses\.txt:1: expected `t_us tx"),
    ("poses.txt", "0 0 0 0 0 nan 0 1\n", r"poses\.txt:1: expected `t_us tx"),
    ("poses.txt", "0 0 0 0 0 0 0 1\n5 0 inf 0 0 0 0 1\n", r"poses\.txt:2: expected"),
])
def test_text_records_name_file_and_line(tmp_path, name, text, where):
    p = tmp_path / name
    p.write_bytes(text.encode("latin-1"))
    read = {"pairs.txt": io.load_pairs, "kp.txt": io.load_keypoints,
            "poses.txt": io.load_poses}[name]
    with pytest.raises(ValueError, match=where):
        read(p)


def test_poses_reject_infinite_quaternion_without_warning(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text("0 0 0 0 0 0 0 1\n5 0 0 0 0 inf 0 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"poses\.txt:2: expected"):
            io.load_poses(p)


@pytest.mark.parametrize("text, cause", [
    ("fx=abc\nfy=1\ncx=0\ncy=0\nwidth=4\nheight=4\n", "fx='abc' is not float"),
    ("fx=1\nfy=1\ncx=0\ncy=0\nwidth=4.5\nheight=4\n", "width='4.5' is not int"),
    ("fx=0\nfy=1\ncx=0\ncy=0\nwidth=4\nheight=4\n", "focal lengths"),
    ("fx=nan\nfy=1\ncx=0\ncy=0\nwidth=4\nheight=4\n", "intrinsics must be finite"),
    ("fx=1\nfy=1\ncx=-inf\ncy=0\nwidth=4\nheight=4\n", "intrinsics must be finite"),
])
def test_intrinsics_name_the_bad_key(tmp_path, text, cause):
    p = tmp_path / "intr.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=rf"intr\.txt: {cause}"):
        io.load_intrinsics(p)


def test_config_file_must_be_utf8(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_bytes(b"seed=1\nname=\xff\n")
    with pytest.raises(ValueError, match=r"run\.cfg: not UTF-8 text at byte 12"):
        io.load_config(p)


# -- parser fuzzing --------------------------------------------------------------

@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """name -> (file to corrupt, reader of it) over one valid file per format."""
    d = tmp_path_factory.mktemp("valid")
    sample = tiny_sample(0.25, 1)
    intr = CameraIntrinsics(6.4, 6.4, 3.5, 2.5)
    io.save_dataset(d / "ds", [sample], intr, 8, 6)
    save_events(d / "ev.evt", sample.events)
    config = ExtractorConfig(in_channels=2, channels=(4,), pools=(2,), latent_dim=4,
                             desc_dim=8)
    save_extractor(d / "net.ckpt", init_student(config), config)
    io.save_keypoints(d / "kp.txt", random_keypoints(k=3, c=4))
    io.save_pairs(d / "pairs.txt", [(0, 1, 0.62), (2, 3, 0.41)])
    io.save_poses(d / "poses.txt", [0, 33000], [sample.pose, sample.pose])
    io.save_intrinsics(d / "intr.txt", intr, 8, 6)
    (d / "run.cfg").write_text(io.format_config({"seed": "3", "k": "64"}))
    io.save_pgm(d / "img.pgm", sample.image)
    io.save_depth(d / "depth.f32", sample.depth)
    return {
        "evt": (d / "ev.evt", load_events),
        "checkpoint": (d / "net.ckpt", load_extractor),
        "keypoints": (d / "kp.txt", io.load_keypoints),
        "sidecar": (d / "kp.txt.desc", lambda _: io.load_keypoints(d / "kp.txt")),
        "pairs": (d / "pairs.txt", io.load_pairs),
        "poses": (d / "poses.txt", io.load_poses),
        "intrinsics": (d / "intr.txt", io.load_intrinsics),
        "config": (d / "run.cfg", io.load_config),
        "pgm": (d / "img.pgm", io.load_pgm),
        "depth": (d / "depth.f32", lambda p: io.load_depth(p, 8, 6)),
    }


BYTES = st.one_of(st.integers(0, 255), st.sampled_from(list(b"0123456789-.#=e \n")))


@settings(max_examples=400, deadline=None)
@given(reader=st.sampled_from(["evt", "checkpoint", "keypoints", "sidecar", "pairs",
                               "poses", "intrinsics", "config", "pgm",
                               "depth"]),
       cut=st.one_of(st.none(), st.integers(0, 10 ** 6)),
       edits=st.lists(st.tuples(st.integers(0, 10 ** 6), BYTES), max_size=4))
def test_corrupt_files_load_or_name_the_file(valid_files, reader, cut, edits):
    """A truncated or byte-mutated file either loads or raises a ValueError
    naming it; no other exception escapes a reader."""
    path, read = valid_files[reader]
    original = path.read_bytes()
    raw = bytearray(original)
    for pos, value in edits:
        raw[pos % len(raw)] = value
    if cut is not None:
        raw = raw[:cut % len(raw)]
    path.write_bytes(bytes(raw))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            read(path)
    except ValueError as e:
        assert path.name in str(e)
    finally:
        path.write_bytes(original)
